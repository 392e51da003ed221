package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"origin2000/internal/sim"
)

// layerDef is one per-layer metric as BENCHMARK.json lists it.
type layerDef struct {
	name, unit, better string
}

// profiledLayers are the layers the CPU profile is split into: the
// program's internal packages that carry simulation work, the benchmark
// itself, and the Go runtime. Samples in any other internal package
// (perf, scenario, memclass, hostprof) go to "other".
var profiledLayers = []string{
	"apps", "workload", "core", "cache", "directory", "mempolicy", "topology", "synchro",
	"sim", "go_runtime", "check", "trace", "metrics", "critpath", "sharing", "snapshot",
	"experiments", "bench",
}

// perLayer lists the per-layer metrics in the order they are documented.
var perLayer = func() []layerDef {
	var defs []layerDef
	for _, l := range profiledLayers {
		defs = append(defs, layerDef{l + ".self_s", "s", "lower"})
	}
	return append(defs,
		layerDef{"other.self_s", "s", "lower"},
		layerDef{"sim.runahead_handoffs", "count", "lower"},
		layerDef{"sim.commit_runs", "count", "lower"},
		layerDef{"sim.windows", "count", "lower"},
		layerDef{"sim.host_ns_per_handoff", "ns", "lower"},
		layerDef{"core.refs", "count", "higher"},
		layerDef{"core.upgrades", "count", "lower"},
		layerDef{"core.host_ns_per_ref", "ns", "lower"},
		layerDef{"cache.hits", "count", "higher"},
		layerDef{"cache.hit_ratio", "ratio", "higher"},
		layerDef{"cache.writebacks", "count", "lower"},
		layerDef{"directory.local_misses", "count", "lower"},
		layerDef{"directory.remote_clean", "count", "lower"},
		layerDef{"directory.remote_dirty", "count", "lower"},
		layerDef{"directory.invalidations", "count", "lower"},
		layerDef{"mempolicy.migrations", "count", "lower"},
		layerDef{"synchro.lock_acquires", "count", "lower"},
		layerDef{"synchro.barrier_waits", "count", "lower"},
		layerDef{"node.hub_queued_us", "us", "lower"},
		layerDef{"node.mem_queued_us", "us", "lower"},
		layerDef{"topology.router_queued_us", "us", "lower"},
		layerDef{"check.events", "count", "higher"},
		layerDef{"check.host_ns_per_event", "ns", "lower"},
		layerDef{"sharing.blocks", "count", "higher"},
		layerDef{"experiments.simulations", "count", "lower"},
		layerDef{"experiments.concurrency", "ratio", "higher"},
		layerDef{"snapshot.requested", "count", "higher"},
		layerDef{"snapshot.captured", "count", "higher"},
		layerDef{"snapshot.capture_ratio", "ratio", "higher"},
		layerDef{"snapshot.bytes", "bytes", "lower"},
		layerDef{"snapshot.encode_s", "s", "lower"},
		layerDef{"snapshot.decode_s", "s", "lower"},
		layerDef{"snapshot.resume_s", "s", "lower"},
		layerDef{"bench.trace_overhead_s", "s", "lower"},
	)
}()

// layerMetrics computes the per-layer metrics of the traced round. Profile
// samples are turned into seconds by their share of the round's measured
// CPU time.
func layerMetrics(r *roundOut, samples map[string]int64, untracedWall float64) map[string]float64 {
	t := &r.col.tally
	var total int64
	for _, n := range samples {
		total += n
	}
	out := map[string]float64{}
	self := func(layer string) float64 {
		if total == 0 {
			return 0
		}
		return r.cpu.Seconds() * float64(samples[layer]) / float64(total)
	}
	rest := total
	for _, l := range profiledLayers {
		out[l+".self_s"] = self(l)
		rest -= samples[l]
	}
	samples["other"] = rest
	out["other.self_s"] = self("other")
	perNs := func(s float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return s * 1e9 / float64(n)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
	var spans time.Duration
	for _, s := range r.col.sims {
		spans += s.span
	}
	out["sim.runahead_handoffs"] = float64(t.handoffs)
	out["sim.commit_runs"] = float64(t.commitRuns)
	out["sim.windows"] = float64(t.windows)
	out["sim.host_ns_per_handoff"] = perNs(out["sim.self_s"], t.handoffs+t.commitRuns)
	out["core.refs"] = float64(t.refs())
	out["core.upgrades"] = float64(t.upgrades)
	out["core.host_ns_per_ref"] = perNs(out["core.self_s"], t.refs())
	out["cache.hits"] = float64(t.hits)
	out["cache.hit_ratio"] = ratio(t.hits, t.refs())
	out["cache.writebacks"] = float64(t.writebacks)
	out["directory.local_misses"] = float64(t.local)
	out["directory.remote_clean"] = float64(t.remoteClean)
	out["directory.remote_dirty"] = float64(t.remoteDirty)
	out["directory.invalidations"] = float64(t.invalidations)
	out["mempolicy.migrations"] = float64(t.migrations)
	out["synchro.lock_acquires"] = float64(t.lockAcquires)
	out["synchro.barrier_waits"] = float64(t.barriers)
	out["node.hub_queued_us"] = us(t.hubQueued)
	out["node.mem_queued_us"] = us(t.memQueued)
	out["topology.router_queued_us"] = us(t.routerQueued)
	out["check.events"] = float64(t.checkEvents)
	out["check.host_ns_per_event"] = perNs(out["check.self_s"], t.checkEvents)
	out["sharing.blocks"] = float64(t.sharingBlocks)
	out["experiments.simulations"] = float64(t.sims)
	out["experiments.concurrency"] = spans.Seconds() / r.wall.Seconds()
	out["snapshot.requested"] = float64(t.snapRequested)
	out["snapshot.captured"] = float64(t.snapCaptured)
	out["snapshot.capture_ratio"] = ratio(t.snapCaptured, t.snapRequested)
	out["snapshot.bytes"] = float64(t.snapBytes)
	out["snapshot.encode_s"] = t.encode.Seconds()
	out["snapshot.decode_s"] = t.decode.Seconds()
	out["snapshot.resume_s"] = t.resume.Seconds()
	out["bench.trace_overhead_s"] = r.wall.Seconds() - untracedWall
	return out
}

// writeReport writes the traced run's report: provenance, raw profile
// samples per layer, the spans around every public call, and the metrics.
func writeReport(dir, workload string, seed int64, prov map[string]any, samples map[string]int64, spans []span, metrics map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace report: %w", err)
	}
	rep := map[string]any{
		"provenance":      prov,
		"profile_samples": samples,
		"spans":           spans,
		"metrics":         metrics,
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("trace report: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace report: %w", err)
	}
	fmt.Println("trace report", path)
	return nil
}

// spanLog records a span around each public call the benchmark makes:
// name, parent and host start/end. Spans are kept in memory and written
// with the traced run's report.
type spanLog struct {
	base  time.Time
	spans []span
	stack []int
}

type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index into the log, -1 at top level
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

func newSpanLog(base time.Time) *spanLog { return &spanLog{base: base} }

func (l *spanLog) do(name string, fn func() error) error {
	var d time.Duration
	return l.timed(&d, name, fn)
}

// timed runs fn inside a span and adds its duration to *total.
func (l *spanLog) timed(total *time.Duration, name string, fn func() error) error {
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	idx := len(l.spans)
	start := time.Now()
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartS: start.Sub(l.base).Seconds()})
	l.stack = append(l.stack, idx)
	err := fn()
	end := time.Now()
	l.stack = l.stack[:len(l.stack)-1]
	l.spans[idx].EndS = end.Sub(l.base).Seconds()
	*total += end.Sub(start)
	return err
}
