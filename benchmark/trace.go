package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"memphis/internal/compiler"
	rt "memphis/internal/runtime"
)

// span is one timed interval at a boundary the harness can see. Spans of one
// operation (or request) share Op; Parent is the span that caused this one
// (-1 for an operation's root). Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the measured code path is the same with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known (offsets from wall
// clock readings the caller took).
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// selfTimes fills SelfNS: a span's duration minus its children's.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.End - s.Start
		}
	}
}

// spanTotals is the per-name aggregate printed after a traced run.
type spanTotals struct {
	Name          string
	Count         int
	TotalNS, Self int64
}

func (t *tracer) totals() []spanTotals {
	t.selfTimes()
	byName := map[string]*spanTotals{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanTotals{Name: s.Name}
			byName[s.Name] = a
		}
		a.Count++
		a.TotalNS += s.End - s.Start
		a.Self += s.SelfNS
	}
	out := make([]spanTotals, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// summarize derives the span-sourced layer metrics of a traced phase.
func (t *tracer) summarize(out map[string]float64, ph *phase) {
	ops := float64(len(ph.wallMS))
	self := map[string]float64{}
	count := map[string]float64{}
	for _, a := range t.totals() {
		self[a.Name] = float64(a.Self)
		count[a.Name] = float64(a.Count)
	}
	out["compiler.blocks_compiled_per_op"] = ratio(count["compile"], ops)
	out["compiler.compile_us_per_op"] = ratio(self["compile"], ops) / 1e3
	exec := self["exec"] + self["run"]
	out["runtime.exec_us_per_op"] = ratio(exec, ops) / 1e3
	out["runtime.ns_per_inst"] = ratio(exec/ops, ratio(ph.counts["rt.insts"], float64(ph.pinned)))
	out["serve.submit_us"] = ratio(self["submit"], count["submit"]) / 1e3
	out["serve.queue_exec_us"] = ratio(self["queue"]+self["exec.request"]+self["coalesce_wait"], count["request"]) / 1e3
}

// write stores the per-name totals of every span, and the spans of the first
// traceOpsWritten operations in full, as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	const traceOpsWritten = 256
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	totals := t.totals()
	var head []span
	for _, s := range t.spans {
		if s.Op < traceOpsWritten {
			head = append(head, s)
		}
	}
	b, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Totals   []spanTotals `json:"totals"`
		Spans    []span       `json:"spans"`
	}{workload, totals, head})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// recordingCache stands in at the runtime's one public compile seam: attached
// with Context.AttachCompileCache it answers every lookup with a miss, so the
// runtime compiles exactly as it does with no cache, and the gap from a
// LookupCompiled to the matching StoreCompiled is that block's compile time.
// The time from a store to the next lookup (or the end of the run) is that
// block executing. It also keeps the compiled streams for the probes.
// Compilation charges no virtual time, so results and virtual times are
// unchanged; the traced phase checks that.
type recordingCache struct {
	tr      *tracer
	parent  int // the enclosing "run" span
	op      int
	open    int // the open compile or exec span
	streams map[uint64][]compiler.Instruction
}

func newRecordingCache(tr *tracer) *recordingCache {
	return &recordingCache{tr: tr, open: -1, streams: map[uint64][]compiler.Instruction{}}
}

// enter starts attributing lookups and stores to the given run span.
func (r *recordingCache) enter(parent, op int) {
	if r != nil {
		r.parent, r.op, r.open = parent, op, -1
	}
}

// leave closes the last block's exec span at the end of a run.
func (r *recordingCache) leave() {
	if r != nil {
		r.tr.end(r.open)
		r.open = -1
	}
}

func (r *recordingCache) LookupCompiled(uint64) (*rt.CompiledBlock, bool) {
	r.tr.end(r.open)
	r.open = r.tr.begin("compile", r.parent, r.op)
	return nil, false
}

func (r *recordingCache) StoreCompiled(_ uint64, cb *rt.CompiledBlock) *rt.CompiledBlock {
	r.tr.end(r.open)
	r.open = r.tr.begin("exec", r.parent, r.op)
	const keep = 64
	if _, seen := r.streams[cb.Sig]; !seen && len(r.streams) < keep {
		r.streams[cb.Sig] = cb.Insts
	}
	return cb
}

// sortedStreams returns the captured streams in a fixed order.
func (r *recordingCache) sortedStreams() [][]compiler.Instruction {
	sigs := make([]uint64, 0, len(r.streams))
	for s := range r.streams {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	out := make([][]compiler.Instruction, len(sigs))
	for i, s := range sigs {
		out[i] = r.streams[s]
	}
	return out
}
