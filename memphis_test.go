package memphis

import (
	"reflect"
	"testing"

	"memphis/internal/data"
	"memphis/internal/dml"
	"memphis/internal/faults"
	"memphis/internal/ir"
	"memphis/internal/serve"
)

// ridgeProgram is a small grid over a reusable gram matrix.
func ridgeProgram(lambdas []float64) *ir.Program {
	p := ir.NewProgram()
	p.Main = []ir.Block{
		ir.For("lambda", lambdas, ir.BB(
			ir.Assign("G", ir.TSMM(ir.Var("X"))),
			ir.Assign("b", ir.MatMul(ir.T(ir.Var("X")), ir.Var("y"))),
			ir.Assign("beta", ir.Solve(ir.Add(ir.Var("G"), ir.Var("lambda")), ir.Var("b"))),
		)),
	}
	return p
}

func bindInputs(s *Session) (*Matrix, *Matrix) {
	x := data.RandNorm(300, 8, 0, 1, 7)
	y := data.RandNorm(300, 1, 0, 1, 8)
	s.Bind("X", x)
	s.Bind("y", y)
	return x, y
}

func TestSessionCorrectness(t *testing.T) {
	for _, reuse := range []Reuse{ReuseOff, ReuseLocal, ReuseCoarse, ReuseFine, ReuseFull} {
		s := New(Options{Reuse: reuse})
		x, y := bindInputs(s)
		if err := s.Run(ridgeProgram([]float64{0.5})); err != nil {
			t.Fatal(err)
		}
		// The program adds lambda cellwise (scalar broadcast), so the
		// reference does too.
		want := data.Solve(data.AddScalar(data.TSMM(x), 0.5),
			data.MatMul(data.Transpose(x), y))
		if !data.AllClose(s.Value("beta"), want, 1e-8) {
			t.Fatalf("reuse=%d: beta mismatch", reuse)
		}
	}
}

func TestSessionReuseAcrossRuns(t *testing.T) {
	s := New(Options{Reuse: ReuseFull})
	bindInputs(s)
	if err := s.Run(ridgeProgram([]float64{0.1, 0.2})); err != nil {
		t.Fatal(err)
	}
	// The loop body is partially lambda-dependent, so auto-tuning defers
	// caching (delay factor 2): the first run creates placeholders.
	if s.CacheStats().Placeholders == 0 {
		t.Fatal("delayed caching should create TO-BE-CACHED placeholders")
	}
	// A second run of the same program is served from the cache.
	before := s.Stats().Reused
	if err := s.Run(ridgeProgram([]float64{0.1, 0.2})); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Reused <= before {
		t.Fatal("second run must reuse")
	}
	if s.CacheStats().HitsCP == 0 {
		t.Fatal("gram matrix should hit in the cache by the second run")
	}
}

func TestSessionReuseOffHasNoTracing(t *testing.T) {
	s := New(Options{})
	bindInputs(s)
	if err := s.Run(ridgeProgram([]float64{0.1})); err != nil {
		t.Fatal(err)
	}
	if s.CacheStats().Probes != 0 {
		t.Fatal("ReuseOff must not probe")
	}
	if _, err := s.SerializeLineage("beta"); err == nil {
		t.Fatal("lineage must be unavailable without tracing")
	}
}

func TestSessionVirtualTimeMonotone(t *testing.T) {
	s := New(Options{Reuse: ReuseFull})
	bindInputs(s)
	t0 := s.VirtualTime()
	if err := s.Run(ridgeProgram([]float64{0.3})); err != nil {
		t.Fatal(err)
	}
	if s.VirtualTime() <= t0 {
		t.Fatal("virtual time must advance")
	}
}

func TestSessionLineageRoundTrip(t *testing.T) {
	s := New(Options{Reuse: ReuseFull})
	x, y := bindInputs(s)
	if err := s.Run(ridgeProgram([]float64{0.7})); err != nil {
		t.Fatal(err)
	}
	log, err := s.SerializeLineage("beta")
	if err != nil {
		t.Fatal(err)
	}
	// Replay in a fresh session with the same persistent inputs.
	s2 := New(Options{})
	s2.Bind("X", x)
	s2.Bind("y", y)
	got, err := s2.Recompute(log)
	if err != nil {
		t.Fatal(err)
	}
	if !data.AllClose(got, s.Value("beta"), 1e-9) {
		t.Fatal("recomputed beta differs")
	}
}

func TestSessionGPUOption(t *testing.T) {
	s := New(Options{Reuse: ReuseFull, EnableGPU: true})
	s.Bind("X", data.RandNorm(128, 64, 0, 1, 9))
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(
		ir.Assign("h", ir.ReLU(ir.MatMul(ir.Var("X"), ir.T(ir.Var("X"))))),
		ir.Assign("z", ir.Sum(ir.Var("h"))),
	)}
	if err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	if s.Stats().GPUInsts == 0 {
		t.Fatal("expected GPU placement with EnableGPU")
	}
	want := data.Sum(data.ReLU(data.MatMul(
		data.RandNorm(128, 64, 0, 1, 9), data.Transpose(data.RandNorm(128, 64, 0, 1, 9)))))
	if got := s.Value("z").ScalarValue(); got != want {
		t.Fatalf("z = %g, want %g", got, want)
	}
}

func TestSessionValueUnbound(t *testing.T) {
	s := New(Options{})
	if s.Value("nope") != nil {
		t.Fatal("unbound variable must return nil")
	}
}

func TestSessionLookupAndClose(t *testing.T) {
	s := New(Options{Reuse: ReuseFull, EnableGPU: true})
	x, _ := bindInputs(s)
	if err := s.Run(ridgeProgram([]float64{0.5})); err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup("X")
	if err != nil {
		t.Fatal(err)
	}
	if !data.AllClose(got, x, 0) {
		t.Fatal("Lookup must return the bound matrix")
	}
	if _, err := s.Lookup("nope"); err == nil {
		t.Fatal("Lookup of an unbound variable must error")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup("X"); err == nil {
		t.Fatal("Lookup after Close must error")
	}
	if s.Value("X") != nil {
		t.Fatal("Value after Close must return nil")
	}
	if err := s.Run(ridgeProgram([]float64{0.5})); err == nil {
		t.Fatal("Run after Close must error")
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestLookupOfHitAllocatesNothing: a warm run of a loop binds each hit in
// place, and fetching a name bound to one reads the matrix there and lends
// no Value: run and fetch allocate nothing.
func TestLookupOfHitAllocatesNothing(t *testing.T) {
	s := New(Options{Reuse: ReuseFull})
	x, _ := bindInputs(s)
	p := ridgeProgram([]float64{0.5})
	for run := 0; run < 4; run++ { // past the delayed-caching factor
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Reused == 0 {
		t.Fatal("the warm runs reused nothing")
	}
	var got *Matrix
	allocs := testing.AllocsPerRun(100, func() {
		err := s.Run(p)
		if err == nil {
			got, err = s.Lookup("G")
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm run and Lookup of its hit allocate %v objects, want 0", allocs)
	}
	if !data.AllClose(got, data.TSMM(x), 1e-12) {
		t.Fatal("Lookup returned the wrong matrix")
	}
}

// TestServerFacade drives the public serving API end to end: two tenants,
// identical programs and data, cross-tenant reuse visible in the snapshot.
func TestServerFacade(t *testing.T) {
	srv := NewServer(Options{Reuse: ReuseFull}, ServerConfig{Workers: 2})
	x := data.RandNorm(300, 8, 0, 1, 7)
	y := data.RandNorm(300, 1, 0, 1, 8)
	inputs := func() map[string]*Matrix {
		return map[string]*Matrix{"X": x.Clone(), "y": y.Clone()}
	}
	prog := ridgeProgram([]float64{0.25, 0.75})
	fa, err := srv.Submit("alice", prog, SubmitOptions{Inputs: inputs(), Fetch: []string{"beta"}})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := srv.Submit("bob", prog, SubmitOptions{Inputs: inputs(), Fetch: []string{"beta"}})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := fa.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := fb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !data.AllClose(ra.Values["beta"], rb.Values["beta"], 0) {
		t.Fatal("both tenants must get the same beta")
	}
	if rb.Stats.SharedHits == 0 {
		t.Fatal("second tenant must reuse the first's work")
	}
	srv.Close()
	snap := srv.Snapshot()
	if snap.Shared.CrossTenantHits == 0 {
		t.Fatal("expected cross-tenant reuse in the snapshot")
	}
	if snap.Completed != 2 || snap.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0", snap.Completed, snap.Failed)
	}
}

// TestNewServerConfig reads the configuration a server runs with: a zero
// ServerConfig gets serve.New's defaults (4 workers), and
// Options.FaultPlan becomes the server's per-attempt plan while the session
// template carries none. The plan's one home is ServerConfig.Faults: a plan
// left on the template given to serve.New is cleared too.
func TestNewServerConfig(t *testing.T) {
	plan := DefaultFaultPlan(5)
	srv := NewServer(Options{Reuse: ReuseFull, FaultPlan: plan}, ServerConfig{})
	defer srv.Close()
	// serve.Server keeps its Config unexported; reflect reads it.
	conf := reflect.ValueOf(srv).Elem().FieldByName("conf")
	if w := conf.FieldByName("Workers").Int(); w != 4 {
		t.Fatalf("zero ServerConfig runs with Workers %d; want serve's default 4", w)
	}
	if conf.FieldByName("Faults").Pointer() != reflect.ValueOf(plan).Pointer() {
		t.Fatal("Options.FaultPlan is not the server's fault plan")
	}
	if !conf.FieldByName("Runtime").FieldByName("Faults").IsNil() {
		t.Fatal("the session template carries the fault plan")
	}

	direct := serve.DefaultConfig()
	direct.Runtime.Faults = plan
	raw := serve.New(direct)
	defer raw.Close()
	if !reflect.ValueOf(raw).Elem().FieldByName("conf").FieldByName("Runtime").FieldByName("Faults").IsNil() {
		t.Fatal("serve.New keeps a fault plan on the session template")
	}
}

// TestSessionFaultPlanDeterministic: a session with a chaos plan completes
// via the recovery paths, matches the fault-free answer, and replays to the
// identical virtual time.
func TestSessionFaultPlanDeterministic(t *testing.T) {
	run := func(plan *FaultPlan) (*Matrix, float64) {
		s := New(Options{Reuse: ReuseFull, EnableGPU: true, FaultPlan: plan})
		defer s.Close()
		bindInputs(s)
		if err := s.Run(ridgeProgram([]float64{0.01, 0.1})); err != nil {
			t.Fatalf("faulted run must complete via retries/fallbacks: %v", err)
		}
		return s.Value("beta"), s.VirtualTime()
	}
	clean, _ := run(nil)
	faulted, t1 := run(DefaultFaultPlan(3))
	replay, t2 := run(DefaultFaultPlan(3))
	if !data.AllClose(clean, faulted, 0) || !data.AllClose(faulted, replay, 0) {
		t.Fatal("fault injection changed a result")
	}
	if t1 != t2 {
		t.Fatalf("replay virtual time diverged: %v != %v", t1, t2)
	}
}

// TestSessionLookupSurfacesStageAbort: a Spark job that exhausts its task
// attempts during a deferred fetch surfaces as a Lookup error, not a panic.
func TestSessionLookupSurfacesStageAbort(t *testing.T) {
	s := New(Options{Reuse: ReuseOff, OpMemBudget: 1 << 10, FaultPlan: &FaultPlan{
		Seed: 1,
		Sites: map[faults.Site]faults.Trigger{
			faults.SparkTask: {Nth: []int64{1}, Attempts: 4},
		},
	}})
	defer s.Close()
	bindInputs(s)
	// No action in the program: the Spark job stays lazy through Run and
	// only executes when Lookup fetches the value.
	p := ir.NewProgram()
	p.Main = []ir.Block{ir.BB(ir.Assign("out", ir.TSMM(ir.Var("X"))))}
	if err := s.Run(p); err != nil {
		t.Fatalf("lazy program must not fail at Run: %v", err)
	}
	if _, err := s.Lookup("out"); err == nil {
		t.Fatal("stage abort during fetch must surface as a Lookup error")
	}
	// The session survives: rebinding and rerunning (fresh injector has
	// spent its scripted failure) succeeds.
	if _, err := s.Lookup("X"); err != nil {
		t.Fatalf("post-abort lookup of an input failed: %v", err)
	}
}

// TestMemoryBudgetsAndStats checks the facade's arbiter surface: a tight
// MemoryBudgets.CP forces driver-cache pressure, and Stats().Memory
// reports per-pool rows with truthful counters in fixed pool order.
func TestMemoryBudgetsAndStats(t *testing.T) {
	// 600 bytes: the 512-byte gram matrix fits alone, so caching its grid
	// siblings must evict — deterministic driver-cache pressure.
	s := New(Options{Reuse: ReuseFull, MemoryBudgets: MemoryBudgets{CP: 600, Spark: 32 << 20}})
	defer s.Close()
	bindInputs(s)
	if err := s.Run(ridgeProgram([]float64{0.1, 0.2, 0.3})); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ridgeProgram([]float64{0.1, 0.2, 0.3})); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Instructions == 0 {
		t.Fatal("runtime counters missing from Stats")
	}
	pools := st.Memory
	if len(pools) != 3 {
		t.Fatalf("pools = %d, want 3 (cp, spark-reuse, spark)", len(pools))
	}
	for i, want := range []string{"cp", "spark-reuse", "spark"} {
		if pools[i].Name != want {
			t.Fatalf("pool[%d] = %q, want %q", i, pools[i].Name, want)
		}
	}
	cp := pools[0]
	if cp.Budget != 600 {
		t.Fatalf("cp budget = %d, want MemoryBudgets.CP", cp.Budget)
	}
	if cp.PressureEvents == 0 || cp.Evictions+cp.Demotions == 0 {
		t.Fatalf("tight cp budget produced no pressure: %+v", cp.Counters)
	}
	if cp.Used > cp.Budget {
		t.Fatalf("cp over budget: used %d > %d", cp.Used, cp.Budget)
	}
	if peak := s.ctx.Cache.CPPeak(); peak != cp.PeakUsed || peak < cp.Used || peak > cp.Budget {
		t.Fatalf("cache CPPeak = %d, want the cp pool's peak %d (used %d, budget %d)", peak, cp.PeakUsed, cp.Used, cp.Budget)
	}
	if pools[2].Budget != 32<<20 {
		t.Fatalf("spark budget = %d, want MemoryBudgets.Spark", pools[2].Budget)
	}
}

// TestSessionRunRewritesOnce is the regression test for re-running one
// program: the program-level rewrites edit the block lists in place, so
// they must be applied once per program. Before the first fix every Run
// appended one more checkpoint block per loop; before the second, a program
// that went through both Session.Run and Server.Submit, in either order, was
// rewritten by each.
func TestSessionRunRewritesOnce(t *testing.T) {
	mk := func() *ir.Program {
		p := ir.NewProgram()
		p.Main = []ir.Block{
			ir.BB(ir.Assign("w", ir.Var("w0"))),
			ir.ForRange("it", 3, ir.BB(
				ir.Assign("g", ir.MatMul(ir.T(ir.Var("X")), ir.Sub(ir.MatMul(ir.Var("X"), ir.Var("w")), ir.Var("y")))),
				ir.Assign("w", ir.Sub(ir.Var("w"), ir.Mul(ir.Var("g"), ir.Lit(0.001)))),
			)),
		}
		return p
	}
	shape := func(p *ir.Program) (blocks, stmts int) {
		ir.Walk(p.Main, func(b ir.Block) {
			blocks++
			if bb, ok := b.(*ir.BasicBlock); ok {
				stmts += len(bb.Stmts)
			}
		})
		return
	}
	p := mk()
	s := New(Options{Reuse: ReuseFull})
	defer s.Close()
	x, y := bindInputs(s)
	s.Bind("w0", data.Zeros(8, 1))
	if err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	blocks, stmts := shape(p)
	if blocks != 4 {
		t.Fatalf("first run left %d blocks, want 4 (init, loop, body, one checkpoint block)", blocks)
	}
	want := s.Value("w")
	prev := s.Stats().Instructions
	var perRun int64
	for run := 2; run <= 50; run++ {
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		if b, st := shape(p); b != blocks || st != stmts {
			t.Fatalf("run %d grew the program: %d blocks / %d statements, want %d / %d", run, b, st, blocks, stmts)
		}
		now := s.Stats().Instructions
		if run == 2 {
			perRun = now - prev
		} else if now-prev != perRun {
			t.Fatalf("run %d executed %d instructions, run 2 executed %d", run, now-prev, perRun)
		}
		prev = now
	}
	if !data.AllClose(s.Value("w"), want, 0) {
		t.Fatal("re-running the program changed its result")
	}

	// The same program through a server, after the session and before it.
	srv := NewServer(Options{Reuse: ReuseFull}, ServerConfig{})
	defer srv.Close()
	submit := func(p *ir.Program) {
		t.Helper()
		f, err := srv.Submit("t", p, SubmitOptions{
			Inputs: map[string]*Matrix{"X": x, "y": y, "w0": data.Zeros(8, 1)},
			Fetch:  []string{"w"},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !data.AllClose(res.Values["w"], want, 0) {
			t.Fatal("served run differs from the session's")
		}
	}
	submit(p)
	if b, st := shape(p); b != blocks || st != stmts {
		t.Fatalf("Submit after Run rewrote the program again: %d blocks / %d statements, want %d / %d", b, st, blocks, stmts)
	}
	q := mk()
	submit(q)
	if b, st := shape(q); b != blocks || st != stmts {
		t.Fatalf("Submit left %d blocks / %d statements, want %d / %d", b, st, blocks, stmts)
	}
	if err := s.Run(q); err != nil {
		t.Fatal(err)
	}
	if b, st := shape(q); b != blocks || st != stmts {
		t.Fatalf("Run after Submit rewrote the program again: %d blocks / %d statements, want %d / %d", b, st, blocks, stmts)
	}
}

// TestLiteralReassignment is the regression test for stale lineage on a
// literal assignment: r = 3 must give r the lineage of the literal 3, not
// leave the leaf it carried as r = 2, or sum(X*r) after the reassignment is
// served from the cache with the value computed before it.
func TestLiteralReassignment(t *testing.T) {
	const src = `r = 2
for (i in [1]) {
    a = sum(X * r)
}
r = 3
for (i in [1]) {
    b = sum(X * r)
}
`
	run := func(reuse Reuse) (a, b float64) {
		p, err := dml.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Reuse: reuse})
		defer s.Close()
		bindInputs(s)
		if err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		return s.Value("a").ScalarValue(), s.Value("b").ScalarValue()
	}
	wantA, wantB := run(ReuseOff)
	if wantA == wantB {
		t.Fatal("test is vacuous: a == b without reuse")
	}
	for _, reuse := range []Reuse{ReuseLocal, ReuseFine, ReuseFull} {
		if a, b := run(reuse); a != wantA || b != wantB {
			t.Errorf("reuse=%d: a, b = %v, %v, want %v, %v", reuse, a, b, wantA, wantB)
		}
	}
}
