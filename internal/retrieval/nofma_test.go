package retrieval

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd guards the bit-identity contract against FMA.
// The Go spec lets a compiler fuse x*y+z into one instruction with a
// single rounding unless an explicit float64 conversion rounds x*y
// first. arm64 fuses by default, and amd64 may at GOAMD64=v3, so an
// unpinned kernel would return different distances there than on the
// amd64 machines the equivalence suites run on. The test cross-compiles
// the exact-distance kernels for both targets with -S and fails on any
// fused instruction in them: every function of this package, the L1
// family of internal/metrics, and core.Distance (Eq. 11 as the model
// evaluates it). It also fails on an FMA instruction in the assembly
// kernel. Only the installed toolchain is needed.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles three packages")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go command at %s", goBin)
	}
	checked := func(fn string) bool {
		switch fn {
		case "qse/internal/metrics.L1", "qse/internal/metrics.WeightedL1", "qse/internal/metrics.WeightedL1Unchecked",
			"qse/internal/core.Distance":
			return true
		}
		return strings.HasPrefix(fn, "qse/internal/retrieval.")
	}
	targets := []struct {
		env   []string
		fused *regexp.Regexp
	}{
		{[]string{"GOARCH=arm64"}, regexp.MustCompile(`\bF(N?)M(ADD|SUB)[SD]\b`)},
		{[]string{"GOARCH=amd64", "GOAMD64=v3"}, regexp.MustCompile(`\bVF(N?)M(ADD|SUB)`)},
	}
	for _, tg := range targets {
		cmd := exec.Command(goBin, "build", "-gcflags=-S", "qse/internal/metrics", "qse/internal/core", "qse/internal/retrieval")
		cmd.Env = append(os.Environ(), append([]string{"CGO_ENABLED=0", "GOOS=linux"}, tg.env...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v go build -gcflags=-S: %v\n%s", tg.env, err, out)
		}
		var fn string
		seen := map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if f := strings.Fields(line); len(f) > 1 && f[1] == "STEXT" {
				fn = f[0]
				seen[fn] = true
				continue
			}
			if checked(fn) && tg.fused.MatchString(line) {
				t.Errorf("%v: fused multiply-add in %s:\n%s", tg.env, fn, line)
			}
		}
		for _, want := range []string{"qse/internal/metrics.WeightedL1Unchecked", "qse/internal/core.Distance", "qse/internal/retrieval.l1x8Go"} {
			if !seen[want] {
				t.Fatalf("%v: no assembly listed for %s; the -S output was not parsed", tg.env, want)
			}
		}
	}
	src, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?m)^\s*VFN?M(ADD|SUB)\w*`).Find(src); m != nil {
		t.Errorf("kernel_amd64.s uses FMA (%s); the kernel must multiply and add separately", m)
	}
}
