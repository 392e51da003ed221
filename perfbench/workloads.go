package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"origin2000/internal/core"
	"origin2000/internal/critpath"
	"origin2000/internal/experiments"
	"origin2000/internal/metrics"
	"origin2000/internal/perf"
	"origin2000/internal/sharing"
	"origin2000/internal/snapshot"
	"origin2000/internal/trace"
	"origin2000/internal/workload"
)

// roundFunc runs one whole pass over a workload's operations, reporting
// simulations and property-check failures into col, and returns how many
// operations it attempted and how many failed.
type roundFunc func(col *collector, sp *spanLog) (attempted, failed int)

// workloadDef names a workload and prepares it: prepare does the set-up
// (at bench scale, or at the self-test's small scale) and returns the round.
// A workload with a fixedSeed ignores the seed it is given.
type workloadDef struct {
	name      string
	prepare   func(seed int64, small bool, sp *spanLog) (roundFunc, error)
	fixedSeed int64
}

// The fig2 and ckpt-resume inputs do not follow the seed. In fig2, Infer's
// idle processors poll the clique table for 8 M to 39 M reads at 32 and 64
// processors depending on the random clique graph, so the round's
// reference count, and refs_per_s with it, would swing by up to 60% with
// the seed while its host time does not. In ckpt-resume, three operations
// fail every time, and they must fail on the same inputs in every run.
var workloads = []workloadDef{
	{"fig2", prepareExperiment("fig2"), 42},
	{"table2-paper", prepareExperiment("table2"), 0},
	{"observed", prepareObserved, 0},
	{"ckpt-resume", prepareCkpt, 42},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// benchDiv is the bench scale: problem sizes and the cache divided by 16.
const benchDiv = 16

// smallProcs is the processor count of the self-test's single simulations:
// enough nodes for remote misses, and at 8 processors FFT and Radix capture
// a snapshot while Ocean does not, so both the resume and the cold-rerun
// paths run. Machines of at most 4 processors never capture at all.
const smallProcs = 8

// smallSizes are the self-test's problem sizes where the workload picks
// its applications itself: below the floors Scale keeps for 128 processors.
var smallSizes = map[string]int{"FFT": 1 << 14, "Ocean": 34, "Radix": 1 << 14}

// scaleFor returns the serial-engine scale dividing sizes and cache by div,
// or the self-test's small scale: ÷64, two timesteps (Ocean's own check
// needs a second one), and fig2 at two processors only.
func scaleFor(div int, seed int64, small bool) experiments.Scale {
	if small {
		return experiments.Scale{Div: 64, CacheDiv: 64, Steps: 2, Procs: []int{2}, Seed: seed, Engine: "serial"}
	}
	return experiments.Scale{Div: div, CacheDiv: div, Seed: seed, Engine: "serial"}
}

// prepareExperiment runs one of the paper's experiments through
// experiments.Run: "fig2" at bench scale and "table2" at paper scale.
func prepareExperiment(name string) func(int64, bool, *spanLog) (roundFunc, error) {
	div := benchDiv
	if name == "table2" {
		div = 1
	}
	return func(seed int64, small bool, _ *spanLog) (roundFunc, error) {
		return func(col *collector, sp *spanLog) (int, int) {
			s := scaleFor(div, seed, small)
			s.OnMachine = col.onMachine
			var out bytes.Buffer
			err := sp.do("experiments.Run", func() error {
				return experiments.Run(name, experiments.NewSession(s), &out)
			})
			col.settleAll(err)
			if err != nil {
				// An application's own output verification failed: the
				// simulation that ran it counts as a failed operation.
				fmt.Fprintf(os.Stderr, "perfbench: experiments.Run(%q): %v\n", name, err)
				return len(col.sims) + col.failed, col.failed
			}
			for _, app := range experiments.Apps() {
				if !strings.Contains(out.String(), app.Name()) {
					col.problem("experiments.Run(%q) output has no row for %s", name, app.Name())
				}
			}
			if name == "table2" {
				for _, st := range col.sims {
					if st.procs != 1 {
						col.problem("table2 ran a %d-processor simulation", st.procs)
					}
				}
			}
			return len(col.sims) + col.failed, col.failed
		}, nil
	}
}

// prepareObserved runs one Radix simulation at 128 processors with every
// observer on, then builds what origin-explain and origin-run -metrics
// build from it: the sharing report, the metrics artifact and its critical
// path.
func prepareObserved(seed int64, small bool, _ *spanLog) (roundFunc, error) {
	procs := 128
	if small {
		procs = smallProcs
	}
	return func(col *collector, sp *spanLog) (int, int) {
		s := scaleFor(benchDiv, seed, small)
		s.Check, s.CritPath, s.Sharing = true, true, true
		s.Trace = trace.Options{Enabled: true}
		s.Metrics = metrics.Options{Enabled: true}
		var m *core.Machine
		s.OnMachine = func(mm *core.Machine) {
			m = mm
			col.onMachine(mm)
		}
		app := experiments.AppByName("Radix")
		params := s.Params(app, app.BasicSize(), "")
		if small {
			params.Size = smallSizes[app.Name()]
		}
		err := sp.do("Scale.Run", func() error {
			_, err := s.Run(app, procs, params)
			return err
		})
		col.settleAll(err)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: observed Radix run: %v\n", err)
			return 1, 1
		}
		res := col.lastRes
		var rep *sharing.Report
		sp.do("Machine.SharingReport", func() error { rep = m.SharingReport(0); return nil })
		var art metrics.Artifact
		var artJSON []byte
		if err := sp.do("experiments.BuildArtifact", func() (err error) {
			art = experiments.BuildArtifact("observed", app, params, m)
			artJSON, err = json.Marshal(&art)
			return err
		}); err != nil || len(artJSON) == 0 {
			col.problem("metrics artifact: %v", err)
		}
		var path *critpath.Path
		if err := sp.do("metrics.CritPath", func() (err error) {
			path, err = metrics.CritPath(&art)
			return err
		}); err != nil {
			col.problem("critical path: %v", err)
		}
		var checkErr error
		if ck := m.Checker(); ck != nil {
			checkErr = ck.Err()
		} else {
			checkErr = fmt.Errorf("checker on but Machine.Checker is nil")
		}
		if err := checkObserved(res, checkErr, rep, path); err != nil {
			col.problem("observed Radix run: %v", err)
		}
		if rep != nil {
			col.tally.sharingBlocks += int64(rep.Blocks)
		}
		col.observed = &observedOut{res: res, rep: rep, path: path}
		return 1, 0
	}, nil
}

// observedOut keeps the observed run's outputs for the self-test.
type observedOut struct {
	res  perf.Result
	rep  *sharing.Report
	path *critpath.Path
}

// ckptConfig is one checkpoint/resume configuration.
type ckptConfig struct {
	app    workload.App
	procs  int
	params workload.Params
	ref    experiments.RunResult
}

// prepareCkpt runs FFT, Ocean and Radix at 32, 64 and 128 processors once
// each for reference. Its round then does, per configuration, a run that
// captures a snapshot at half the reference's elapsed virtual time, encodes
// and decodes the snapshot, and resumes from it with the state proof; a
// configuration that captured nothing is counted as failed and rerun cold,
// as origin-sweep falls back.
func prepareCkpt(seed int64, small bool, sp *spanLog) (roundFunc, error) {
	s := scaleFor(benchDiv, seed, small)
	procs := []int{32, 64, 128}
	if small {
		procs = []int{smallProcs}
	}
	setup := newCollector()
	s.OnMachine = setup.onMachine
	var configs []ckptConfig
	for _, name := range []string{"FFT", "Ocean", "Radix"} {
		app := experiments.AppByName(name)
		params := s.Params(app, app.BasicSize(), "")
		if small {
			params.Size = smallSizes[name]
		}
		for _, p := range procs {
			var ref experiments.RunResult
			err := sp.do("Scale.Run", func() (err error) {
				ref, err = s.Run(app, p, params)
				return err
			})
			setup.settleAll(err)
			if err != nil {
				return nil, fmt.Errorf("reference run %s at %d processors: %w", name, p, err)
			}
			configs = append(configs, ckptConfig{app: app, procs: p, params: params, ref: ref})
		}
	}
	if len(setup.problems) > 0 {
		return nil, fmt.Errorf("reference runs: %s", strings.Join(setup.problems, "; "))
	}
	return func(col *collector, sp *spanLog) (int, int) {
		s.OnMachine = col.onMachine
		failed := 0
		for _, c := range configs {
			if !ckptOne(s, c, col, sp) {
				failed++
			}
		}
		return len(configs), failed
	}, nil
}

// ckptOne runs one configuration's operation and reports whether it
// succeeded.
func ckptOne(s experiments.Scale, c ckptConfig, col *collector, sp *spanLog) bool {
	label := fmt.Sprintf("%s at %d processors", c.app.Name(), c.procs)
	var captured experiments.RunResult
	var snaps []*snapshot.Snapshot
	err := sp.do("Scale.RunCheckpointed", func() (err error) {
		captured, snaps, err = s.RunCheckpointed(c.app, c.procs, c.params, c.ref.Elapsed/2, "")
		return err
	})
	col.settleAll(err)
	col.tally.snapRequested++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: capture run: %v\n", label, err)
		return false
	}
	if err := checkResume(c.ref, captured); err != nil {
		col.problem("%s: capture run differs from the reference: %v", label, err)
	}
	if len(snaps) == 0 {
		// No quiescent boundary came, so no snapshot (see README.md). Run
		// cold once more, as origin-sweep falls back, so the work matches
		// a success.
		fmt.Fprintf(os.Stderr, "perfbench: %s: no snapshot captured\n", label)
		var cold experiments.RunResult
		err := sp.do("Scale.Run", func() (err error) {
			cold, err = s.Run(c.app, c.procs, c.params)
			return err
		})
		col.settleAll(err)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: cold rerun: %v\n", label, err)
		} else if err := checkResume(c.ref, cold); err != nil {
			col.problem("%s: cold rerun differs from the reference: %v", label, err)
		}
		return false
	}
	col.tally.snapCaptured++
	resumed, err := resumeVia(s, c, snaps[0], col, sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: resume: %v\n", label, err)
		return false
	}
	if err := checkResume(c.ref, resumed); err != nil {
		col.problem("%s: resumed run differs from the reference: %v", label, err)
		return false
	}
	col.resumed = &resumePair{ref: c.ref, got: resumed}
	return true
}

// resumeVia encodes the snapshot, decodes it and resumes from the decoded
// copy, as a resume from a checkpoint file does.
func resumeVia(s experiments.Scale, c ckptConfig, captured *snapshot.Snapshot, col *collector, sp *spanLog) (experiments.RunResult, error) {
	var data []byte
	err := sp.timed(&col.tally.encode, "Snapshot.Encode", func() (err error) {
		data, err = captured.Encode()
		return err
	})
	if err != nil {
		return experiments.RunResult{}, err
	}
	col.tally.snapBytes += int64(len(data))
	var sn *snapshot.Snapshot
	if err := sp.timed(&col.tally.decode, "snapshot.Decode", func() (err error) {
		sn, err = snapshot.Decode(data)
		return err
	}); err != nil {
		return experiments.RunResult{}, err
	}
	var resumed experiments.RunResult
	err = sp.timed(&col.tally.resume, "Scale.ResumeRun", func() (err error) {
		resumed, err = s.ResumeRun(c.app, c.procs, c.params, sn)
		return err
	})
	col.settleAll(err)
	return resumed, err
}

// resumePair keeps one resumed result and its reference for the self-test.
type resumePair struct{ ref, got experiments.RunResult }
