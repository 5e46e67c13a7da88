package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one run, written next to the spans.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      env     `json:"env"`
	// Counts are the sample counts behind the percentiles.
	Counts map[string]int `json:"counts"`
	// Windows are the per-window values behind a windowed median.
	Windows  map[string][]float64 `json:"windows,omitempty"`
	Problems []string             `json:"problems,omitempty"`
	EndToEnd map[string]metric    `json:"end_to_end"`
	PerLayer map[string]metric    `json:"per_layer,omitempty"`
	res      result
}

func newReport(workload string, rc runConfig) *report {
	return &report{
		Workload: workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Counts: map[string]int{}, Windows: map[string][]float64{}, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
}

func (r *report) e2e(name string, v float64, unit string)   { r.EndToEnd[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.PerLayer[name] = metric{v, unit} }
func (r *report) count(name string, n int)                  { r.Counts[name] = n }

// samples counts the phase's operations against attempted and failed.
func (r *report) samples(ss []sample) {
	for _, s := range ss {
		r.res.Attempted++
		if !s.ok {
			r.res.Failed++
		}
	}
}

func (r *report) gate(g gateResult, first bool) {
	r.res.Attempted += g.probes
	r.res.Failed += g.mismatches
	if g.mismatches > 0 {
		when := "after the run"
		if first {
			when = "on the fresh store"
		}
		r.Problems = append(r.Problems, fmt.Sprintf("%d of %d probes mismatched %s", g.mismatches, g.probes, when))
	}
}

// fail records a failed check.
func (r *report) fail(msg string) {
	r.res.Attempted++
	r.res.Failed++
	r.Problems = append(r.Problems, msg)
}

func (r *report) final() result {
	res := r.res
	res.Correct = res.Failed == 0
	res.Metrics = r.EndToEnd
	if r.Trace {
		res.Metrics = r.PerLayer
	}
	return res
}

func (r *report) writeSpans(dir string, spans []Span) error {
	d := filepath.Join(dir, "traces")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(d, fmt.Sprintf("%s-seed%d.jsonl", r.Workload, r.Seed)), spans)
}

func (r *report) write(dir string) error {
	d := filepath.Join(dir, "results")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(d, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace)), b, 0o644)
}

// env is the machine and code a number was measured on.
type env struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision the binary was built from, with
	// "+modified" for uncommitted changes; "unknown" outside a repository.
	Commit string `json:"commit"`
}

func readEnv() env {
	e := env{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
