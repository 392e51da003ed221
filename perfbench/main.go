// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload of the simulator in this process with the serial engine,
// checks the simulator's outputs against properties every correct run has,
// and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 51, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (wall_s, cpu_s,
// refs_per_s, max_rss_mb, setup_s); with -trace 1 they are the per-layer
// ones, from an extra round run under Go's CPU profiler. See README.md.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"origin2000/internal/scenario"
)

// processStart approximates the process start: package initialization runs
// before main.
var processStart = time.Now()

func main() {
	workloadName := flag.String("workload", "", "workload: fig2, table2-paper, observed or ckpt-resume")
	seed := flag.Int64("seed", 42, "input seed (fig2 and ckpt-resume always use 42)")
	seconds := flag.Int("seconds", 10, "repeat whole rounds of the workload until this many seconds have passed")
	traceFlag := flag.Int("trace", 0, "1 = add a round under the CPU profiler and print per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's report")
	flag.Parse()
	w, ok := lookupWorkload(*workloadName)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload fig2|table2-paper|observed|ckpt-resume -seed N -seconds N -trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundOut is one measured round.
type roundOut struct {
	col               *collector
	attempted, failed int
	wall, cpu         time.Duration
}

func run(w workloadDef, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if w.fixedSeed != 0 {
		seed = w.fixedSeed
	}
	prov := provenance(w.name, seed)
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Println("provenance", string(provJSON))

	// Set-up: prove the property checks on this build at small scale, then
	// prepare the workload.
	sp := newSpanLog(processStart)
	if err := selfTest(w, seed); err != nil {
		return nil, fmt.Errorf("self-test: %w", err)
	}
	round, err := w.prepare(seed, false, sp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(processStart)

	// The peak resident set is read at the end of the first round: later
	// rounds run on the heap the first one grew, so a peak over all rounds
	// would depend on how many fit in the budget.
	var rounds []roundOut
	var rss float64
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < budget {
		r := measureRound(round, sp)
		printRound(fmt.Sprintf("round %d", len(rounds)+1), r)
		if len(rounds) == 0 {
			rss = maxRSSMB()
		}
		rounds = append(rounds, r)
	}
	var tracedRound, warmRound *roundOut
	var samples map[string]int64
	if traced {
		// The tracing overhead compares the traced round with an untraced
		// round run just before it on the same warm heap.
		warm := measureRound(round, sp)
		printRound("warm round", warm)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		r := measureRound(round, sp)
		pprof.StopCPUProfile()
		printRound("traced round", r)
		tracedRound, warmRound = &r, &warm
		if samples, err = attributeProfile(prof.Bytes()); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	first := rounds[0].col
	all := rounds
	if tracedRound != nil {
		all = append(all[:len(all):len(all)], *warmRound, *tracedRound)
	}
	for i, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.col.problems {
			fmt.Fprintf(os.Stderr, "perfbench: round %d: %s\n", i+1, p)
			res.Correct = false
		}
		if d, d0 := roundDigest(r.col.sims), roundDigest(first.sims); d != d0 {
			fmt.Fprintf(os.Stderr, "perfbench: round %d digest %s differs from round 1 digest %s\n", i+1, d, d0)
			res.Correct = false
		}
	}
	printSims(first)

	if !traced {
		walls := make([]float64, len(rounds))
		cpus := make([]float64, len(rounds))
		rates := make([]float64, len(rounds))
		for i, r := range rounds {
			walls[i] = r.wall.Seconds()
			cpus[i] = r.cpu.Seconds()
			rates[i] = float64(r.col.tally.refs()) / r.wall.Seconds()
		}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["cpu_s"] = metric{median(cpus), "s"}
		res.Metrics["refs_per_s"] = metric{median(rates), "1/s"}
		res.Metrics["max_rss_mb"] = metric{rss, "MB"}
		res.Metrics["setup_s"] = metric{setup.Seconds(), "s"}
		return res, nil
	}

	layers := layerMetrics(tracedRound, samples, warmRound.wall.Seconds())
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	if err := writeReport(outDir, w.name, seed, prov, samples, sp.spans, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

func printRound(label string, r roundOut) {
	fmt.Printf("%s wall_s=%.3f cpu_s=%.3f attempted=%d failed=%d\n", label, r.wall.Seconds(), r.cpu.Seconds(), r.attempted, r.failed)
}

func measureRound(round roundFunc, sp *spanLog) roundOut {
	// Start every round from a collected heap, as testing.B does before a
	// benchmark, so one round's garbage does not bill the next.
	runtime.GC()
	col := newCollector()
	cpu0 := cpuTime()
	t0 := time.Now()
	var r roundOut
	sp.do("round", func() error {
		r.attempted, r.failed = round(col, sp)
		return nil
	})
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	r.col = col
	return r
}

// printSims prints every simulation's elapsed time and digest, and the
// round's combined digest, so two runs can be compared for determinism.
func printSims(col *collector) {
	sims := append([]simStat(nil), col.sims...)
	sort.Slice(sims, func(i, j int) bool {
		if sims[i].procs != sims[j].procs {
			return sims[i].procs < sims[j].procs
		}
		if sims[i].elapsed != sims[j].elapsed {
			return sims[i].elapsed < sims[j].elapsed
		}
		return sims[i].digest < sims[j].digest
	})
	for _, s := range sims {
		fmt.Printf("sim procs=%d elapsed_ps=%d digest=%s\n", s.procs, int64(s.elapsed), s.digest)
	}
	fmt.Printf("digest simulations=%d %s\n", len(sims), roundDigest(sims))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance names what was measured and where.
func provenance(workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"git_rev":       gitRev(),
		"source_sha256": sourceDigest(),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"scenario_hash": scenario.Default().Hash(),
		"engine":        "serial",
	}
}

// gitRev reads the checked-out commit from .git without running git; a
// checkout without .git reports "none" (source_sha256 still identifies it).
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "none"
}

// sourceDigest hashes the program's Go sources and go.mod (the benchmark's
// own directory excluded), so runs of different code are told apart even
// without git.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// cpuModel returns the host CPU's model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
