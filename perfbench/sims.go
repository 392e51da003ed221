package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"origin2000/internal/core"
	"origin2000/internal/perf"
	"origin2000/internal/sim"
)

// simStat is one finished simulation as the benchmark records it.
type simStat struct {
	procs   int
	elapsed sim.Time
	digest  string
	span    time.Duration
}

// tally is the per-round sum of the simulated counts every layer reports.
// Simulated counts are deterministic: only a change to the model moves them.
type tally struct {
	sims                               int64
	reads, writes, hits, upgrades      int64
	writebacks, local, remoteClean     int64
	remoteDirty, invalidations         int64
	migrations, lockAcquires, barriers int64
	hubQueued, memQueued, routerQueued sim.Time
	windows, commitRuns, handoffs      int64
	checkEvents, sharingBlocks         int64

	snapRequested, snapCaptured, snapBytes int64
	encode, decode, resume                 time.Duration
}

func (t *tally) refs() int64 { return t.reads + t.writes }

func (t *tally) addResult(r perf.Result, shape sim.SchedShape) {
	c := r.Counters
	t.sims++
	t.reads += c.Reads
	t.writes += c.Writes
	t.hits += c.Hits
	t.upgrades += c.Upgrades
	t.writebacks += c.Writebacks
	t.local += c.LocalMisses
	t.remoteClean += c.RemoteClean
	t.remoteDirty += c.RemoteDirty
	t.invalidations += c.Invalidations
	t.migrations += r.Migrations
	t.lockAcquires += c.LockAcquires
	t.barriers += c.BarrierWaits
	t.hubQueued += r.HubQueued
	t.memQueued += r.MemQueued
	t.routerQueued += r.RouterQueued
	t.windows += shape.Windows
	t.commitRuns += shape.CommitRuns
	t.handoffs += shape.RunAheadHandoffs
}

// digestResult hashes everything a simulation computes about the simulated
// machine, so two runs of the same inputs can be compared without a stored
// copy. Host-side pointers (tracer, sampler) are left out.
func digestResult(r perf.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %+v %v %v %v %v %v %v %d",
		r.Procs, r.Elapsed, r.Counters, r.PerProc,
		r.HubQueuedPerNode, r.MemQueuedPerNode, r.HubBusyPerNode,
		r.RouterQueuedPerRouter, r.MetaQueuedPerMeta, r.Migrations)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// running is a machine whose simulation has started but not been settled.
type running struct {
	m     *core.Machine
	start time.Time
}

// collector sees every machine the program builds (through
// Scale.OnMachine), settles each when its simulation is over, checks its
// result and adds it to the round's tally. A machine is over when the
// goroutine that built it builds the next one or when the public call that
// ran it returns, so per-simulation spans stay right if the program runs
// simulations on several goroutines.
type collector struct {
	mu       sync.Mutex
	open     map[uint64]running
	sims     []simStat
	tally    tally
	problems []string
	// failed counts simulations whose run returned an error.
	failed int
	// lastRes is the most recent settled result, kept for the observed
	// workload's report checks and the self-test.
	lastRes perf.Result
	// seqProcs, observed and resumed are outputs the self-test corrupts:
	// a one-processor result, the observed run's reports and a resumed
	// run with its reference.
	seqProcs perf.Result
	observed *observedOut
	resumed  *resumePair
}

func newCollector() *collector { return &collector{open: make(map[uint64]running)} }

func (c *collector) onMachine(m *core.Machine) {
	now := time.Now()
	id := goid()
	c.mu.Lock()
	prev, ok := c.open[id]
	c.open[id] = running{m: m, start: now}
	c.mu.Unlock()
	if ok {
		c.settle(prev, now, nil)
	}
}

// settleAll settles every open simulation; err is the error the public call
// that ran them returned, and makes each one count as failed.
func (c *collector) settleAll(err error) {
	now := time.Now()
	c.mu.Lock()
	open := make([]running, 0, len(c.open))
	for id, r := range c.open {
		open = append(open, r)
		delete(c.open, id)
	}
	c.mu.Unlock()
	for _, r := range open {
		c.settle(r, now, err)
	}
}

func (c *collector) settle(r running, end time.Time, err error) {
	if err != nil {
		c.mu.Lock()
		c.failed++
		c.mu.Unlock()
		return
	}
	res := r.m.Result()
	shape := r.m.SchedShape()
	var events int64
	if ck := r.m.Checker(); ck != nil {
		events = ck.Events()
	}
	st := simStat{procs: res.Procs, elapsed: res.Elapsed, digest: digestResult(res), span: end.Sub(r.start)}
	cerr := checkResult(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sims = append(c.sims, st)
	c.tally.addResult(res, shape)
	c.tally.checkEvents += events
	c.lastRes = res
	if res.Procs == 1 {
		c.seqProcs = res
	}
	if cerr != nil {
		c.problems = append(c.problems, fmt.Sprintf("simulation at %d processors (elapsed %v): %v", res.Procs, res.Elapsed, cerr))
	}
}

// problem records a failed property check.
func (c *collector) problem(format string, args ...any) {
	c.mu.Lock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// roundDigest combines the simulations' digests independently of the order
// they finished in.
func roundDigest(sims []simStat) string {
	ds := make([]string, len(sims))
	for i, s := range sims {
		ds[i] = s.digest
	}
	sort.Strings(ds)
	h := sha256.Sum256([]byte(strings.Join(ds, "\n")))
	return hex.EncodeToString(h[:8])
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 7 [running]:").
func goid() uint64 {
	var buf [32]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(s, 10, 64) // the header format is fixed by the runtime
	return id
}
