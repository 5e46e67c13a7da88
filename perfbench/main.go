// Command perfbench is the repository's benchmark. It serves a store
// built from seeded inputs through the real HTTP server on a loopback
// listener in the same process, drives it with its own client, checks
// the answers, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload vec-search --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line holds the end-to-end metrics, measured
// with tracing off; with --trace 1 it holds the per-layer metrics of a
// traced run. README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds of load")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()

	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	const dir = ".bench_build"
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	rep, err := runWorkload(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep.Env = readEnv()
	if err := rep.write(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
		os.Exit(1)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED CHECK: %s\n", p)
	}
	head, _ := json.Marshal(map[string]any{"workload": rep.Workload, "seed": rep.Seed, "env": rep.Env, "counts": rep.Counts})
	fmt.Println(string(head))
	line, _ := json.Marshal(rep.final())
	fmt.Println(string(line))
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
