// Command perfbench is the repository benchmark. It launches the real
// fairallocd on loopback, drives it from one seeded open-loop
// generator, checks every published share against the centralized
// oracle, and runs the packet simulator in process on the flow set the
// daemon served. A traced run (--trace 1) replays the same ops in
// process and times each layer's public calls.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload churn-sparse --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 50 --trace 1
//
// The last line of stdout is the JSON result; the lines before it are
// the human-readable report and the provenance stamp.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1 --daemon FAIRALLOCD

Workloads (every one runs fairallocd churn and the 2PA-C simulation):`)
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-14s %s\n", w.Name, w.Why)
		if w.Ungated != "" {
			fmt.Fprintf(out, "  %-14s (on request only, not in BENCHMARK.json or all: %s)\n", "", w.Ungated)
		}
	}
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(out, "\n%s\n", title)
		for _, d := range defs {
			fmt.Fprintf(out, "  %-26s %-10s %-6s %s\n", d.Name, d.Unit, d.Better, d.Why)
		}
	}
	section("End-to-end metrics (--trace 0):", endToEnd)
	section("Printed by untraced runs, not in the result line:", printedOnly)
	section("Per-layer metrics (--trace 1):", perLayer)
	fmt.Fprintln(out, "\nFlags:")
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.Usage = func() { usage(os.Stderr); fs.PrintDefaults() }
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 50, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	daemonBin := fs.String("daemon", "", "fairallocd binary")
	work := fs.String("work", ".bench_build/runs", "scratch directory for specs and data dirs")
	traces := fs.String("traces", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var list []*workload
	if *name == "all" {
		list = gated()
	} else if w := findWorkload(*name); w != nil {
		list = []*workload{w}
	} else {
		fs.Usage()
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *daemonBin == "" {
		return errors.New("--daemon is required")
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	// One connection per CPU: the generator stays one process with at
	// most nproc connections.
	conns := runtime.NumCPU()
	// The generator allocates per request; collecting less often keeps
	// its GC from delaying scheduled sends.
	debug.SetGCPercent(400)

	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	e := &env{daemonBin: *daemonBin, work: workDir, traces: *traces, conns: conns, out: out}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	total := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range list {
		var rep *report
		if *trace == 1 {
			rep, err = runTraced(e, w, *seed, *seconds)
		} else {
			rep, err = runUntraced(e, w, *seed, *seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		title := fmt.Sprintf("%s seed=%d seconds=%g trace=%d", w.Name, *seed, *seconds, *trace)
		if *trace == 0 {
			rep.printTable(out, title, append(endToEnd[:len(endToEnd):len(endToEnd)], printedOnly...))
			fmt.Fprintf(out, "  (%d of %d ops failed)\n", rep.failed, rep.attempted)
		} else {
			rep.printTable(out, title, defs)
		}
		if rep.tailNote != "" {
			fmt.Fprintf(out, "  (%s)\n", rep.tailNote)
		}
		// The result line's keys are fixed, so an invalid run says so
		// on stderr as well as in the report.
		for _, msg := range rep.invalid {
			fmt.Fprintf(os.Stderr, "perfbench: %s: INVALID RUN: %s\n", w.Name, msg)
		}
		res := rep.result(defs)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(list) > 1 {
				k = w.Name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	st := stamp(*seed, conns)
	data, _ := json.Marshal(st)
	fmt.Fprintf(out, "stamp %s\n", data)
	writeResult(out, total)
	return nil
}

// provenance identifies what produced a result.
type provenance struct {
	GitSHA     string `json:"gitSHA"`
	Dirty      *bool  `json:"dirty"`
	SourceHash string `json:"sourceSHA256"`
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"conns"`
	Seed       int64  `json:"seed"`
}

// stamp records the commit (when the checkout is a git work tree),
// a hash of the Go sources it ran, and the machine shape.
func stamp(seed int64, conns int) provenance {
	p := provenance{
		GitSHA:     "none",
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Conns:      conns,
		Seed:       seed,
	}
	// Only a work tree rooted here counts: a checkout nested in some
	// other repository must not borrow that repository's commit.
	top, _ := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, _ := os.Getwd()
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil && strings.TrimSpace(string(top)) == wd {
		p.GitSHA = strings.TrimSpace(string(sha))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			p.Dirty = &dirty
		}
	}
	return p
}

// sourceHash hashes every Go source and go.mod under root (outside
// build output), so a result is tied to its code even where git is
// absent.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
