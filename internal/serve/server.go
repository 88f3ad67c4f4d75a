package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"memphis/internal/compiler"
	"memphis/internal/core"
	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
	"memphis/internal/ir"
	"memphis/internal/key"
	"memphis/internal/runtime"
	"memphis/internal/spark"
)

// The retry and coalesce-window settings no caller changes.
const (
	// maxRetries is how many times a failed attempt (injected crash, stage
	// abort, panic) is retried before the request fails.
	maxRetries = 2
	// retryBackoff is the base of the exponential virtual-time backoff added
	// to a request's latency per retry: backoff_i = retryBackoff * 2^i
	// virtual seconds.
	retryBackoff = 0.05
	// coalesceWindow is how many tickets after a group's leader a submission
	// may still join the group. Joining a group whose leader already finished
	// yields exactly the same result and virtual latency as joining before it
	// ran.
	coalesceWindow = 256
)

// Config assembles the serving layer.
type Config struct {
	// Runtime is the per-request session template: every request executes
	// on a fresh runtime.Context built from it (own virtual clock, own
	// session-local cache), attached to the shared cache.
	Runtime runtime.Config
	// Workers is the worker-pool size (default 4).
	Workers int
	// MaxQueue bounds the number of queued requests; Submit rejects with
	// ErrQueueFull beyond it (default 1024).
	MaxQueue int
	// MaxPerTenant bounds one tenant's queued+running requests; Submit
	// rejects with ErrTenantLimit beyond it (default 64).
	MaxPerTenant int
	// Shared sizes the cross-tenant cache.
	Shared SharedConfig

	// Faults, when non-nil, is the chaos plan. Each request attempt derives
	// its own plan via Faults.ForRequest(ticket, attempt) — keyed by ticket,
	// not call order, so fault streams (and therefore virtual latencies) are
	// identical for every worker count. The serve.request site additionally
	// crashes whole attempts before execution. It is the server's only
	// fault plan: New clears Runtime.Faults.
	Faults *faults.Plan
	// DisabledShards lists shared-cache shards to start degraded (see
	// SharedCache.SetShardEnabled): probes miss and publishes are rejected,
	// so sessions recompute instead of failing.
	DisabledShards []int

	// Coalesce enables batched admission: a submission that resolves to the
	// same compiled plan as a recent one — same program fingerprint, same
	// input contents, same fetch set — joins that request's coalesce group
	// instead of queueing. The group leader executes once and its results
	// fan out to all followers as independent copies. Group membership is
	// decided purely in ticket space at Submit time (see coalesceWindow and
	// MaxBatch), so it is identical for every worker count and
	// interleaving. Disabled by default.
	Coalesce bool
	// MaxBatch caps a coalesce group's size, leader included (default 64).
	MaxBatch int
}

// DefaultConfig sets only the per-request session template: it mirrors
// memphis.Options{Reuse: ReuseFull}, with a CPU-only backend set (serving
// adds no GPU by default). Every other field is zero, which New replaces by
// its default.
func DefaultConfig() Config {
	comp := compiler.DefaultConfig()
	comp.OpMemBudget = 7 << 20
	comp.Async = true
	comp.MaxParallelize = true
	comp.CheckpointInjection = true
	return Config{
		Runtime: runtime.Config{
			Mode:     runtime.ReuseMemphis,
			Compiler: comp,
			Cache:    core.DefaultConfig(),
			Spark:    spark.DefaultConfig(),
		},
	}
}

// Submission errors (admission control).
var (
	ErrClosed      = errors.New("serve: server closed")
	ErrQueueFull   = errors.New("serve: request queue full")
	ErrTenantLimit = errors.New("serve: tenant request limit reached")
)

// SubmitOptions carries a request's inputs and result selection.
type SubmitOptions struct {
	// Inputs are host matrices bound (in sorted name order) into the
	// request's fresh session before execution. Their content fingerprints
	// (data.Matrix.Fingerprint, taken once inside Submit) define the
	// request's conflict keys: requests sharing any (name, content) pair
	// serialize in ticket order. Inputs are shared with the server, not
	// copied, and must not be mutated once submitted: a shared-cache entry
	// may be a row view of one, which outlives the request.
	Inputs map[string]*data.Matrix
	// Fetch lists variables to materialize to the host in the Result.
	Fetch []string
}

// Result is one completed request.
type Result struct {
	Tenant string `json:"tenant"`
	Ticket uint64 `json:"ticket"`
	// VirtualSeconds is the request's deterministic simulated latency on
	// its private session clock — independent of worker interleaving.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// WallSeconds is the real execution time (throughput accounting only).
	WallSeconds float64 `json:"wall_seconds"`
	// Values holds the fetched variables as the caller's own copies: no
	// cache entry, session or other request shares their storage, so the
	// caller may write them.
	Values map[string]*data.Matrix `json:"-"`
	Stats  runtime.Stats           `json:"stats"`
	Cache  core.Stats              `json:"-"`
	// Retries is how many failed attempts preceded the successful one.
	Retries int `json:"retries,omitempty"`
	// Faults counts injected failures per site during the winning attempt.
	Faults map[string]int64 `json:"faults,omitempty"`
	// Coalesced marks a follower of a coalesce group: its Values are copies
	// of the values the leader's session fetched, and its VirtualSeconds is
	// the leader's latency plus one host-memory copy charge per fetched
	// value (costs.Transfer(bytes, MemBW, CopyLatency)). CoalescedWith is
	// the leader's ticket.
	Coalesced     bool   `json:"coalesced,omitempty"`
	CoalescedWith uint64 `json:"coalesced_with,omitempty"`
}

// request is the queue element behind a Future. A coalesce follower never
// queues: it carries only its tenant, ticket and outcome.
type request struct {
	tenant string
	prog   *ir.Program
	opts   SubmitOptions
	ticket uint64
	// in is the input binding hashed once at admission: the conflict keys
	// the scheduler serializes on and the fingerprints the session needs.
	in hashedInputs
	// group is the coalesce group the request leads (nil when coalescing is
	// off). coalKey is the group's key in Server.groups.
	group   *coalesceGroup
	coalKey uint64

	done chan struct{}
	res  *Result
	err  error
}

// resolve publishes the request's outcome; it is called exactly once per
// request. Result fields are written before done closes, so Future.Wait
// reads them race-free without locks.
func (r *request) resolve(res *Result, err error) {
	r.res, r.err = res, err
	close(r.done)
}

// coalesceGroup is one batched-admission group: the leader executes, the
// followers wait for the fan-out. Membership (size, waiters) is guarded by
// Server.mu; res/err are written once under mu when the leader finishes
// (done flips true) and are read-only afterwards. res is the leader's
// session result, whose Values no caller ever receives: the leader's caller
// and every follower get copies of them.
type coalesceGroup struct {
	leader  uint64 // leader's ticket
	size    int    // members including the leader
	waiters []*request
	done    bool
	res     *Result
	err     error
}

// Future resolves to a request's Result.
type Future struct{ req *request }

// Done is closed when the request completes.
func (f *Future) Done() <-chan struct{} { return f.req.done }

// Wait blocks for completion and returns the result or execution error.
func (f *Future) Wait() (*Result, error) {
	<-f.req.done
	return f.req.res, f.req.err
}

// CompileCache is the server-wide compile cache: runtime.BlockCache, the one
// compile-cache type, sharded so that every tenant's session can compile
// through one instance. NewCompileCache and CompileCacheStats are re-exports
// for the monitoring surface.
type (
	CompileCache      = runtime.BlockCache
	CompileCacheStats = runtime.BlockCacheStats
)

// compileShards is the server cache's lock-shard count.
const compileShards = 16

// NewCompileCache creates a compile cache with the given shard count.
func NewCompileCache(shards int) *CompileCache { return runtime.NewBlockCache(shards) }

// Server owns the shared cache, the request queue, and the worker pool.
type Server struct {
	conf   Config
	shared *SharedCache
	cc     *CompileCache // every request session compiles through it
	model  *costs.Model  // coalesce fan-out copy charges

	mu           sync.Mutex
	cond         *sync.Cond
	queue        []*request
	running      map[uint64]int            // conflict key -> running holders
	runningCount int                       // requests currently executing
	tenantActive map[string]bool           // tenant has a running request; no key otherwise
	tenantLoad   map[string]int            // queued+running per tenant (admission); no key at 0
	groups       map[uint64]*coalesceGroup // coalesce key -> latest group
	groupOrder   []groupRef                // every group put in groups, by leader ticket
	nextTicket   uint64
	closed       bool

	submitted   int64
	completed   int64
	failed      int64
	rejected    int64
	retries     int64
	coalesced   int64
	faultCounts map[string]int64
	vtimeTotal  exactSum
	start       time.Time

	wg sync.WaitGroup
}

// New starts a server and its workers.
func New(conf Config) *Server { return newServer(conf).startWorkers() }

// newServer builds a server whose workers have not started: submissions
// queue until startWorkers.
func newServer(conf Config) *Server {
	if conf.Workers <= 0 {
		conf.Workers = 4
	}
	if conf.MaxQueue <= 0 {
		conf.MaxQueue = 1024
	}
	if conf.MaxPerTenant <= 0 {
		conf.MaxPerTenant = 64
	}
	if conf.MaxBatch <= 0 {
		conf.MaxBatch = 64
	}
	// The fault plan's one home is conf.Faults: every attempt derives its
	// session's plan from it, so a plan on the template would go unread.
	conf.Runtime.Faults = nil
	model := conf.Runtime.Model
	if model == nil {
		model = costs.Default()
	}
	s := &Server{
		conf:         conf,
		shared:       NewSharedCache(conf.Shared),
		cc:           NewCompileCache(compileShards),
		model:        model,
		running:      make(map[uint64]int),
		tenantActive: make(map[string]bool),
		tenantLoad:   make(map[string]int),
		groups:       make(map[uint64]*coalesceGroup),
		faultCounts:  make(map[string]int64),
		start:        time.Now(),
	}
	s.shared.model = model
	for _, idx := range conf.DisabledShards {
		s.shared.SetShardEnabled(idx, false)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// startWorkers launches the server's workers.
func (s *Server) startWorkers() *Server {
	s.wg.Add(s.conf.Workers)
	for i := 0; i < s.conf.Workers; i++ {
		go s.worker()
	}
	return s
}

// hashedInputs is a request's input binding in the order a session binds
// it (sorted by name), with each matrix's content fingerprint and the
// conflict key derived from it.
type hashedInputs struct {
	names []string
	sums  []uint64 // sums[i] == inputs[names[i]].Fingerprint()
	keys  []uint64 // conflict keys: one per (name, content) pair
}

// hashInputs fingerprints every input once. This is the only place a request
// reads its inputs' cells for identity: the conflict and coalesce keys are
// folded from the sums here, and the sums travel with the request to the
// session (BindHostFingerprinted) for the share signatures. It runs before
// Server.mu is taken, so a large input does not stall other submitters.
//
// Input-less requests get the sentinel key 0 so they serialize among
// themselves: their cacheable sub-programs have no read leaves and are
// excluded from sharing, but the sentinel keeps the contract simple and
// future-proof.
func hashInputs(inputs map[string]*data.Matrix) hashedInputs {
	if len(inputs) == 0 {
		return hashedInputs{keys: []uint64{0}}
	}
	in := hashedInputs{
		names: make([]string, 0, len(inputs)),
		sums:  make([]uint64, len(inputs)),
		keys:  make([]uint64, len(inputs)),
	}
	for n := range inputs {
		in.names = append(in.names, n)
	}
	sort.Strings(in.names)
	for i, n := range in.names {
		sum := inputs[n].Fingerprint()
		in.sums[i], in.keys[i] = sum, key.New().Str(n).Byte(0).U64(sum).Sum64()
	}
	return in
}

// prepareLocked applies MEMPHIS's program-level rewrites under full reuse,
// as Session.Run does (once per program object, before any worker can run
// it), and returns the program key, the coalesce key's program component.
// The key is the post-rewrite structure, and same-structure programs rewrite
// identically, so equal programs always yield equal keys. Both are
// remembered on the program itself; the caller holds s.mu, which orders
// concurrent submissions of one program.
func (s *Server) prepareLocked(prog *ir.Program) uint64 {
	if s.conf.Runtime.Mode == runtime.ReuseMemphis {
		compiler.RewriteProgram(prog)
	}
	return prog.Key()
}

// coalesceKey identifies a coalesce group: the program fingerprint, the
// request's input contents (the conflict keys already hash name +
// fingerprint), and the fetch set. Requests with equal keys run the same
// deterministic program on the same inputs, so one execution serves all.
func coalesceKey(progKey uint64, keys []uint64, fetch []string) uint64 {
	h := key.New().U64(progKey)
	for _, k := range keys {
		h = h.U64(k)
	}
	names := append([]string(nil), fetch...)
	sort.Strings(names)
	for _, n := range names {
		h = h.Str(n).Byte(0)
	}
	return h.Sum64()
}

// Submit enqueues a program for a tenant and returns its Future. Admission
// control rejects when the queue or the tenant's in-flight allowance is
// exhausted, so a flooding tenant cannot starve the pool.
//
// With Config.Coalesce on, a submission that matches an open coalesce
// group (same program, inputs, and fetch set; leader submitted at most
// coalesceWindow tickets ago; group below MaxBatch) joins the group
// instead of queueing: it bypasses the queue-depth check (it
// consumes no queue slot or worker), but still counts against the
// per-tenant allowance. Whether the leader has already finished does not
// change the follower's result or virtual latency, so admission is
// interleaving-independent.
func (s *Server) Submit(tenant string, prog *ir.Program, opts SubmitOptions) (*Future, error) {
	if tenant == "" {
		tenant = "default"
	}
	in := hashInputs(opts.Inputs)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	progKey := s.prepareLocked(prog)
	var coalKey uint64
	if s.conf.Coalesce {
		s.pruneGroupsLocked()
		coalKey = coalesceKey(progKey, in.keys, opts.Fetch)
		if g := s.groups[coalKey]; g != nil && s.nextTicket+1-g.leader <= coalesceWindow && g.size < s.conf.MaxBatch {
			if s.tenantLoad[tenant] >= s.conf.MaxPerTenant {
				s.rejected++
				return nil, ErrTenantLimit
			}
			s.nextTicket++
			req := &request{tenant: tenant, ticket: s.nextTicket, done: make(chan struct{})}
			g.size++
			s.tenantLoad[tenant]++
			s.submitted++
			s.coalesced++
			if g.done {
				res, err := s.followerOutcome(req, g)
				s.accountLocked(tenant, res, err)
				req.resolve(res, err)
			} else {
				g.waiters = append(g.waiters, req)
			}
			return &Future{req: req}, nil
		}
	}
	if len(s.queue) >= s.conf.MaxQueue {
		s.rejected++
		return nil, ErrQueueFull
	}
	if s.tenantLoad[tenant] >= s.conf.MaxPerTenant {
		s.rejected++
		return nil, ErrTenantLimit
	}
	s.nextTicket++
	req := &request{
		tenant: tenant,
		prog:   prog,
		opts:   opts,
		ticket: s.nextTicket,
		in:     in,
		done:   make(chan struct{}),
	}
	if s.conf.Coalesce {
		g := &coalesceGroup{leader: req.ticket, size: 1}
		req.group = g
		req.coalKey = coalKey
		s.groups[coalKey] = g
		s.groupOrder = append(s.groupOrder, groupRef{leader: req.ticket, coalKey: coalKey})
	}
	s.queue = append(s.queue, req)
	s.tenantLoad[tenant]++
	s.submitted++
	s.cond.Broadcast()
	return &Future{req: req}, nil
}

// groupRef names the group a leader opened under a coalesce key.
type groupRef struct{ leader, coalKey uint64 }

// pruneGroupsLocked forgets coalesce groups no submission can join any more.
// A group takes joiners only while the next ticket is within coalesceWindow
// of its leader's, and leaders enter groupOrder in ticket order, so the
// expired groups are a prefix of it; each is deleted unless a later group has
// already replaced it under its key. Without this the map would keep every
// group ever opened, with its Result and fetched values. Dropping an expired
// group changes no outcome: the next submission under its key would have
// found it unjoinable and overwritten it. Caller holds s.mu.
func (s *Server) pruneGroupsLocked() {
	n := 0
	for _, ref := range s.groupOrder {
		if s.nextTicket+1-ref.leader <= coalesceWindow {
			break
		}
		if g := s.groups[ref.coalKey]; g != nil && g.leader == ref.leader {
			delete(s.groups, ref.coalKey)
		}
		n++
	}
	s.groupOrder = s.groupOrder[n:]
}

// pickLocked removes and returns the earliest-ticket eligible request
// (caller holds s.mu). A request is eligible when its tenant has no earlier
// work (queued or running) and it conflicts with nothing running or queued
// ahead of it — so conflicting requests always execute in ticket order,
// which is what makes virtual latencies interleaving-independent.
func (s *Server) pickLocked() *request {
	earlier := make(map[uint64]struct{})
	seenTenant := make(map[string]bool)
	for i, r := range s.queue {
		eligible := !s.tenantActive[r.tenant] && !seenTenant[r.tenant]
		if eligible {
			for _, k := range r.in.keys {
				if _, ok := s.running[k]; ok {
					eligible = false
					break
				}
				if _, ok := earlier[k]; ok {
					eligible = false
					break
				}
			}
		}
		if eligible {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return r
		}
		seenTenant[r.tenant] = true
		for _, k := range r.in.keys {
			earlier[k] = struct{}{}
		}
	}
	return nil
}

// worker is the pool loop: pick, mark conflicts running, execute on a fresh
// session, account, release.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var req *request
		for {
			if req = s.pickLocked(); req != nil {
				break
			}
			if s.closed && len(s.queue) == 0 {
				s.mu.Unlock()
				s.cond.Broadcast()
				return
			}
			s.cond.Wait()
		}
		s.tenantActive[req.tenant] = true
		s.runningCount++
		for _, k := range req.in.keys {
			s.running[k]++
		}
		s.mu.Unlock()

		res, err := s.execute(req)

		s.mu.Lock()
		delete(s.tenantActive, req.tenant)
		s.runningCount--
		for _, k := range req.in.keys {
			if s.running[k]--; s.running[k] <= 0 {
				delete(s.running, k)
			}
		}
		s.accountLocked(req.tenant, res, err)
		// Seal the coalesce group (if this request leads one) so later
		// joins are served inline, and take the current waiters for
		// fan-out.
		g := req.group
		var waiters []*request
		if g != nil {
			g.done = true
			g.res, g.err = res, err
			waiters = g.waiters
			g.waiters = nil
			// A group sealed with an error stops accepting joiners: the
			// waiters inherit the failure, but fresh submissions (new
			// tickets, new fault streams) start a new group.
			if err != nil && s.groups[req.coalKey] == g {
				delete(s.groups, req.coalKey)
			}
		}
		s.mu.Unlock()
		s.cond.Broadcast()
		req.resolve(callerCopy(res), err)
		for _, w := range waiters {
			fres, ferr := s.followerOutcome(w, g)
			s.mu.Lock()
			s.accountLocked(w.tenant, fres, ferr)
			s.mu.Unlock()
			w.resolve(fres, ferr)
		}
		if len(waiters) > 0 {
			s.cond.Broadcast()
		}
	}
}

// callerCopy is a leader's result as its caller receives it: res with its
// Values cloned. The session's own values may be stored in the shared cache
// or be read by the coalesce group's followers, so they never leave the
// server. A nil res (a failed request) stays nil.
func callerCopy(res *Result) *Result {
	if res == nil {
		return nil
	}
	out := *res
	out.Values = make(map[string]*data.Matrix, len(res.Values))
	for n, m := range res.Values {
		out.Values[n] = m.Clone()
	}
	return &out
}

// followerOutcome builds a follower's result from its group's sealed
// outcome. The follower receives its own copies of the values the leader's
// session fetched and is charged the leader's virtual latency plus one
// host-memory copy per value (costs.Transfer(bytes, MemBW, CopyLatency)) —
// a deterministic function of the leader's outcome, so identical for every
// interleaving and for followers joining before or after the leader ran.
// A leader error propagates, wrapped with the follower's identity.
func (s *Server) followerOutcome(w *request, g *coalesceGroup) (*Result, error) {
	if g.err != nil {
		return nil, fmt.Errorf("serve: request %d (%s): coalesced with request %d: %w",
			w.ticket, w.tenant, g.leader, g.err)
	}
	names := make([]string, 0, len(g.res.Values))
	for n := range g.res.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	values := make(map[string]*data.Matrix, len(names))
	copyCost := 0.0
	for _, n := range names {
		m := g.res.Values[n]
		values[n] = m.Clone()
		copyCost += costs.Transfer(m.SizeBytes(), s.model.MemBW, s.model.CopyLatency)
	}
	return &Result{
		Tenant:         w.tenant,
		Ticket:         w.ticket,
		VirtualSeconds: g.res.VirtualSeconds + copyCost,
		Values:         values,
		Coalesced:      true,
		CoalescedWith:  g.leader,
	}, nil
}

// accountLocked applies a finished request's bookkeeping, for a leader and a
// follower alike: it frees one of the tenant's admission slots, deleting the
// tenant's key when it holds none, so that tenantLoad keeps only tenants with
// work in flight (a missing key reads as zero), and counts the completion
// with its virtual time or its failure. Caller holds s.mu.
func (s *Server) accountLocked(tenant string, res *Result, err error) {
	if n := s.tenantLoad[tenant] - 1; n != 0 {
		s.tenantLoad[tenant] = n
	} else {
		delete(s.tenantLoad, tenant)
	}
	if err != nil {
		s.failed++
	} else {
		s.vtimeTotal.add(res.VirtualSeconds)
	}
	s.completed++
}

// exactSum adds float64s without rounding error: Shewchuk's non-overlapping
// partials, as in Python's math.fsum. value is the exact sum rounded once,
// so it does not depend on the order of the adds (the order requests
// complete in).
type exactSum struct{ partials []float64 }

func (e *exactSum) add(x float64) {
	i := 0
	for _, y := range e.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			e.partials[i] = lo
			i++
		}
		x = hi
	}
	e.partials = append(e.partials[:i], x)
}

// value returns the sum rounded to nearest, ties to even: the partials are
// summed from the largest down until the sum turns inexact, and a remainder
// of the same sign as the next partial down breaks a tie upwards.
func (e *exactSum) value() float64 {
	p := e.partials
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		if lo = y - (hi - x); lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := lo * 2
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}

// execute runs one request through the retry loop: each attempt executes on a
// fresh session with its own attempt-derived fault plan; failed attempts
// (injected worker crash, Spark stage abort, panic) are retried up to
// maxRetries times, each adding an exponential virtual-time backoff to the
// latency. Everything in the loop is a pure function of the ticket, so
// latencies stay interleaving-independent.
func (s *Server) execute(req *request) (*Result, error) {
	backoff := 0.0
	for attempt := 0; ; attempt++ {
		res, err := s.runAttempt(req, attempt)
		if err == nil {
			res.Retries = attempt
			res.VirtualSeconds += backoff
			return res, nil
		}
		if attempt == maxRetries {
			return nil, err
		}
		backoff += retryBackoff * float64(int64(1)<<uint(attempt))
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
	}
}

// runAttempt runs one attempt of a request on a fresh session attached to the
// shared cache. The session is torn down afterwards (Close frees GPU
// pointers, unpersists RDDs and broadcasts), so per-request state never leaks
// across tenants — or across attempts. A panic (e.g. a stage abort escaping
// through a lazy fetch) fails the attempt, not the worker.
func (s *Server) runAttempt(req *request, attempt int) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: request %d (%s): panic: %v", req.ticket, req.tenant, p)
		}
	}()
	// Injected request-level fault: the simulated worker crashes before
	// touching the session. Decided by (ticket, attempt) alone.
	if s.conf.Faults.FireAt(faults.ServeRequest, req.ticket, attempt) {
		s.mu.Lock()
		s.faultCounts[string(faults.ServeRequest)]++
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: request %d (%s): injected worker fault (attempt %d)",
			req.ticket, req.tenant, attempt)
	}
	start := time.Now()
	rc := s.conf.Runtime
	rc.Faults = s.conf.Faults.ForRequest(req.ticket, attempt)
	ctx := runtime.New(rc)
	defer ctx.Close()
	defer func() {
		if counts := ctx.Inj.Counts(); len(counts) > 0 {
			s.mu.Lock()
			for site, n := range counts {
				s.faultCounts[string(site)] += n
			}
			s.mu.Unlock()
		}
	}()
	ctx.AttachShared(s.shared, req.tenant)
	ctx.AttachCompileCache(s.cc, 0)
	for i, n := range req.in.names {
		ctx.BindHostFingerprinted(n, req.opts.Inputs[n], req.in.sums[i])
	}
	if err := ctx.RunProgram(req.prog); err != nil {
		return nil, fmt.Errorf("serve: request %d (%s): %w", req.ticket, req.tenant, err)
	}
	values := make(map[string]*data.Matrix, len(req.opts.Fetch))
	for _, n := range req.opts.Fetch {
		if m := ctx.Host(n); m != nil {
			values[n] = m
		}
	}
	var siteCounts map[string]int64
	if counts := ctx.Inj.Counts(); len(counts) > 0 {
		siteCounts = make(map[string]int64, len(counts))
		for site, n := range counts {
			siteCounts[string(site)] = n
		}
	}
	return &Result{
		Tenant:         req.tenant,
		Ticket:         req.ticket,
		VirtualSeconds: ctx.Clock.Now(),
		WallSeconds:    time.Since(start).Seconds(),
		Values:         values,
		Stats:          ctx.Stats,
		Cache:          ctx.Cache.Stats,
		Faults:         siteCounts,
	}, nil
}

// Snapshot is the monitoring surface of the server.
type Snapshot struct {
	QueueDepth int   `json:"queue_depth"`
	Running    int   `json:"running"`
	Submitted  int64 `json:"submitted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Rejected   int64 `json:"rejected"`
	// Shed is always 0: the server has no load shedding. The field stays
	// only because benchmark/wl_serve.go still reads it; omitempty keeps it
	// out of every report.
	Shed int64 `json:"shed,omitempty"`
	// Retries counts retried attempts. Faults aggregates injected failures
	// by site across all attempts.
	Retries int64            `json:"retries,omitempty"`
	Faults  map[string]int64 `json:"faults,omitempty"`
	// Coalesced counts follower requests served by a group leader's
	// execution.
	Coalesced int64 `json:"coalesced,omitempty"`
	// WallSeconds and Throughput are real-time aggregates; virtual times
	// stay per-session and deterministic.
	WallSeconds             float64            `json:"wall_seconds"`
	Throughput              float64            `json:"throughput_rps"`
	AggregateVirtualSeconds float64            `json:"aggregate_virtual_seconds"`
	Shared                  SharedStats        `json:"shared"`
	CompileCache            *CompileCacheStats `json:"compile_cache,omitempty"`
}

// Snapshot returns current queue, throughput, and shared-cache statistics.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		QueueDepth:              len(s.queue),
		Running:                 s.runningCount,
		Submitted:               s.submitted,
		Completed:               s.completed,
		Failed:                  s.failed,
		Rejected:                s.rejected,
		Retries:                 s.retries,
		Coalesced:               s.coalesced,
		WallSeconds:             time.Since(s.start).Seconds(),
		AggregateVirtualSeconds: s.vtimeTotal.value(),
	}
	if len(s.faultCounts) > 0 {
		snap.Faults = make(map[string]int64, len(s.faultCounts))
		for site, n := range s.faultCounts {
			snap.Faults[site] = n
		}
	}
	s.mu.Unlock()
	if snap.WallSeconds > 0 {
		snap.Throughput = float64(snap.Completed) / snap.WallSeconds
	}
	snap.Shared = s.shared.StatsSnapshot()
	st := s.cc.StatsSnapshot()
	snap.CompileCache = &st
	return snap
}

// Close stops admitting requests, drains the queue, and waits for all
// workers to finish. The shared cache remains readable for Snapshot.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}
