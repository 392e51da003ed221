package main

import (
	"errors"
	"fmt"
	"strings"

	"origin2000/internal/experiments"
	"origin2000/internal/memclass"
	"origin2000/internal/perf"
	"origin2000/internal/sim"
)

// selfTest runs the workload's code path at the small scale, requires every
// property check to pass on the real outputs, and requires each check to
// reject a deliberately corrupted copy of them. The benchmark runs it in
// its set-up so a broken check cannot pass a broken build.
func selfTest(w workloadDef, seed int64) error {
	sp := newSpanLog(processStart)
	round, err := w.prepare(seed, true, sp)
	if err != nil {
		return err
	}
	col := newCollector()
	attempted, failed := round(col, sp)
	if len(col.problems) > 0 {
		return fmt.Errorf("%s at small scale: %s", w.name, strings.Join(col.problems, "; "))
	}
	if attempted == 0 || len(col.sims) == 0 {
		return fmt.Errorf("%s at small scale ran nothing", w.name)
	}
	var cases []corruption
	cases = append(cases, resultCorruptions(col.lastRes)...)
	switch w.name {
	case "fig2", "table2-paper":
		if col.seqProcs.Procs != 1 {
			return fmt.Errorf("%s at small scale ran no one-processor simulation", w.name)
		}
		cases = append(cases, seqCorruptions(col.seqProcs)...)
	case "observed":
		if col.observed == nil {
			return fmt.Errorf("observed at small scale kept no outputs")
		}
		cases = append(cases, observedCorruptions(*col.observed)...)
	case "ckpt-resume":
		if col.resumed == nil {
			return fmt.Errorf("ckpt-resume at small scale resumed nothing (%d of %d operations failed)", failed, attempted)
		}
		cases = append(cases, resumeCorruptions(*col.resumed)...)
	}
	for _, c := range cases {
		if c.check() == nil {
			return fmt.Errorf("%s: the check accepted a corrupted result: %s", w.name, c.name)
		}
	}
	return nil
}

// corruption is one deliberately corrupted output and the check that must
// reject it.
type corruption struct {
	name  string
	check func() error
}

// cloneResult copies the slices a corruption may modify.
func cloneResult(r perf.Result) perf.Result {
	r.PerProc = append([]perf.Breakdown(nil), r.PerProc...)
	r.HubQueuedPerNode = append([]sim.Time(nil), r.HubQueuedPerNode...)
	r.MemQueuedPerNode = append([]sim.Time(nil), r.MemQueuedPerNode...)
	return r
}

func resultCorruptions(good perf.Result) []corruption {
	bad := func(name string, f func(r *perf.Result)) corruption {
		r := cloneResult(good)
		f(&r)
		return corruption{name, func() error { return checkResult(r) }}
	}
	return []corruption{
		bad("one hit removed", func(r *perf.Result) { r.Counters.Hits-- }),
		bad("one write added", func(r *perf.Result) { r.Counters.Writes++ }),
		bad("elapsed one ps longer", func(r *perf.Result) { r.Elapsed++ }),
		bad("slowest processors one ps faster", func(r *perf.Result) {
			for i, b := range r.PerProc {
				if b.Total() == r.Elapsed {
					r.PerProc[i].Busy--
				}
			}
		}),
		bad("hub queueing moved off node 0's total", func(r *perf.Result) { r.HubQueuedPerNode[0]++ }),
		bad("memory queueing moved off the last node's total", func(r *perf.Result) {
			r.MemQueuedPerNode[len(r.MemQueuedPerNode)-1]++
		}),
	}
}

func seqCorruptions(good perf.Result) []corruption {
	bad := func(name string, f func(r *perf.Result)) corruption {
		r := cloneResult(good)
		f(&r)
		return corruption{name, func() error { return checkResult(r) }}
	}
	return []corruption{
		// A hit turned into a remote miss keeps reads+writes balanced, so
		// only the one-processor check can catch it.
		bad("one-processor hit turned remote-dirty miss", func(r *perf.Result) { r.Counters.Hits--; r.Counters.RemoteDirty++ }),
		bad("one-processor invalidation", func(r *perf.Result) { r.Counters.Invalidations++ }),
	}
}

func observedCorruptions(good observedOut) []corruption {
	rep, path := *good.rep, *good.path
	cases := []corruption{
		{"checker violation", func() error {
			return checkObserved(good.res, errors.New("injected violation"), good.rep, good.path)
		}},
		{"critical-path residual", func() error {
			p := path
			p.Residual = 1
			return checkObserved(good.res, nil, good.rep, &p)
		}},
	}
	for _, c := range []memclass.Class{memclass.Local, memclass.RemoteClean, memclass.RemoteDirty, memclass.Upgrade} {
		c := c
		cases = append(cases, corruption{"sharing report " + c.String() + " off by one", func() error {
			r := rep
			r.Misses[c]++
			return checkObserved(good.res, nil, &r, good.path)
		}})
	}
	cases = append(cases,
		corruption{"cold misses off by one", func() error {
			r := rep
			r.Split.Cold++
			return checkObserved(good.res, nil, &r, good.path)
		}},
		corruption{"true sharing off by one", func() error {
			r := rep
			r.Split.TrueSharing++
			return checkObserved(good.res, nil, &r, good.path)
		}},
	)
	return cases
}

func resumeCorruptions(good resumePair) []corruption {
	bad := func(name string, f func(r *experiments.RunResult)) corruption {
		r := good.got
		r.Result = cloneResult(r.Result)
		f(&r)
		return corruption{name, func() error { return checkResume(good.ref, r) }}
	}
	return []corruption{
		bad("resumed writebacks off by one", func(r *experiments.RunResult) { r.Result.Counters.Writebacks++ }),
		bad("resumed elapsed off by one", func(r *experiments.RunResult) { r.Elapsed++ }),
		bad("resumed processor 0 busy off by one", func(r *experiments.RunResult) { r.Result.PerProc[0].Busy++ }),
	}
}
