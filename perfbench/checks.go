package main

import (
	"fmt"
	"reflect"

	"origin2000/internal/critpath"
	"origin2000/internal/experiments"
	"origin2000/internal/memclass"
	"origin2000/internal/perf"
	"origin2000/internal/sharing"
	"origin2000/internal/sim"
)

// The property checks below are pure functions of a simulation's outputs,
// so the self-test can hand each one a deliberately corrupted copy and see
// it refuse. They hold for every correct run of the simulator, whatever the
// application, size or processor count.

// checkResult checks the accounting identities every simulation must keep.
func checkResult(r perf.Result) error {
	c := r.Counters
	if refs, classified := c.Reads+c.Writes, c.Hits+c.LocalMisses+c.RemoteClean+c.RemoteDirty+c.Upgrades; refs != classified {
		return fmt.Errorf("reads+writes = %d but hits+misses+upgrades = %d", refs, classified)
	}
	var longest sim.Time
	for _, b := range r.PerProc {
		if t := b.Total(); t > longest {
			longest = t
		}
	}
	if longest != r.Elapsed {
		return fmt.Errorf("longest per-processor busy+memory+sync = %v, elapsed = %v", longest, r.Elapsed)
	}
	if hub := sum(r.HubQueuedPerNode); hub != r.HubQueued {
		return fmt.Errorf("per-node hub queueing sums to %v, machine total %v", hub, r.HubQueued)
	}
	if mem := sum(r.MemQueuedPerNode); mem != r.MemQueued {
		return fmt.Errorf("per-node memory queueing sums to %v, machine total %v", mem, r.MemQueued)
	}
	if r.Procs == 1 && (c.RemoteClean+c.RemoteDirty != 0 || c.Invalidations != 0) {
		return fmt.Errorf("one-processor run has %d remote misses and %d invalidations",
			c.RemoteClean+c.RemoteDirty, c.Invalidations)
	}
	return nil
}

func sum(ts []sim.Time) sim.Time {
	var s sim.Time
	for _, t := range ts {
		s += t
	}
	return s
}

// checkObserved checks what the observers of one run report against the
// machine's own counters: the coherence checker's verdict, the sharing
// classifier's miss classes and cause split, and the critical path's
// exactness.
func checkObserved(r perf.Result, checkErr error, rep *sharing.Report, path *critpath.Path) error {
	if checkErr != nil {
		return fmt.Errorf("coherence checker: %w", checkErr)
	}
	if rep == nil {
		return fmt.Errorf("sharing classifier on but no report")
	}
	c := r.Counters
	for class, n := range [...]int64{
		memclass.Local:       c.LocalMisses,
		memclass.RemoteClean: c.RemoteClean,
		memclass.RemoteDirty: c.RemoteDirty,
		memclass.Upgrade:     c.Upgrades,
	} {
		if rep.Misses[class] != n {
			return fmt.Errorf("sharing report counts %d %s misses, machine counts %d", rep.Misses[class], memclass.Class(class), n)
		}
	}
	demand := c.LocalMisses + c.RemoteClean + c.RemoteDirty
	s := rep.Split
	if got := s.Cold + s.Replacement + s.Coherence; got != demand {
		return fmt.Errorf("cold+replacement+coherence = %d, demand misses = %d", got, demand)
	}
	if got := s.TrueSharing + s.FalseSharing + s.Pending; got != s.Coherence {
		return fmt.Errorf("true+false+pending sharing = %d, coherence misses = %d", got, s.Coherence)
	}
	if path == nil {
		return fmt.Errorf("critical-path recording on but no path")
	}
	if path.Residual != 0 || path.Total() != r.Elapsed {
		return fmt.Errorf("critical path residual %v, total %v, elapsed %v", path.Residual, path.Total(), r.Elapsed)
	}
	return nil
}

// checkResume checks that a run resumed from a snapshot (or rerun cold)
// ends exactly where the uninterrupted reference run did.
func checkResume(ref, got experiments.RunResult) error {
	if got.Elapsed != ref.Elapsed {
		return fmt.Errorf("elapsed %v, reference %v", got.Elapsed, ref.Elapsed)
	}
	if got.Result.Counters != ref.Result.Counters {
		return fmt.Errorf("counters differ from the reference run:\n got %+v\n ref %+v", got.Result.Counters, ref.Result.Counters)
	}
	if !reflect.DeepEqual(got.Result.PerProc, ref.Result.PerProc) {
		return fmt.Errorf("per-processor breakdowns differ from the reference run")
	}
	return nil
}
