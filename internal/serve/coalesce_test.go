package serve

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"testing"
	"time"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/runtime"
)

// coalesceConf is the common template for the batched-admission tests.
func coalesceConf(workers int) Config {
	conf := DefaultConfig()
	conf.Workers = workers
	conf.Coalesce = true
	return conf
}

// expectedCopyCharge recomputes the documented follower vtime rule: one
// host-memory copy per fetched value, summed in sorted name order.
func expectedCopyCharge(leader *Result) float64 {
	model := costs.Default()
	names := make([]string, 0, len(leader.Values))
	for n := range leader.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	cc := 0.0
	for _, n := range names {
		cc += costs.Transfer(leader.Values[n].SizeBytes(), model.MemBW, model.CopyLatency)
	}
	return cc
}

// TestCoalesceIndependentCopies: N concurrent submissions of the same
// (program, inputs, fetch) coalesce into one execution; every follower gets
// (a) a result bitwise-equal to the leader's, (b) its own deep copy —
// mutating one tenant's matrix must not leak into any other's, and (c) the
// documented virtual latency: the leader's plus one copy charge per
// fetched value. A worker-pinning request queues the leader first, so the
// followers exercise the pending-group (waiter fan-out) path.
func TestCoalesceIndependentCopies(t *testing.T) {
	const followers = 4
	srv := New(coalesceConf(1))
	defer srv.Close()
	w := hcvWorkload()
	inputs := w.HostInputs()

	// Pin the single worker so the leader sits queued while followers join.
	hold := make(chan struct{})
	started := make(chan struct{})
	gate, err := srv.Submit("gate", trivialProg(), SubmitOptions{Bind: func(*runtime.Context) {
		close(started)
		<-hold
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	lead, err := srv.Submit("leader", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, followers)
	for i := range futs {
		f, err := srv.Submit(fmt.Sprintf("f%d", i), w.Prog,
			SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	close(hold)
	if _, err := gate.Wait(); err != nil {
		t.Fatal(err)
	}
	leadRes, err := lead.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if leadRes.Coalesced {
		t.Fatal("leader must not be marked coalesced")
	}
	results := make([]*Result, followers)
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		results[i] = res
	}
	wantVS := leadRes.VirtualSeconds + expectedCopyCharge(leadRes)
	for i, res := range results {
		if !res.Coalesced || res.CoalescedWith != leadRes.Ticket {
			t.Fatalf("follower %d: coalesced=%v with=%d, want leader ticket %d",
				i, res.Coalesced, res.CoalescedWith, leadRes.Ticket)
		}
		if !data.AllClose(res.Values["best"], leadRes.Values["best"], 0) {
			t.Fatalf("follower %d result differs from leader", i)
		}
		if res.VirtualSeconds != wantVS {
			t.Fatalf("follower %d vtime = %v, want leader + copy = %v", i, res.VirtualSeconds, wantVS)
		}
		if res.Values["best"] == leadRes.Values["best"] {
			t.Fatalf("follower %d aliases the leader's matrix", i)
		}
	}
	// Independence: poison one follower's copy; nobody else may see it.
	before := leadRes.Values["best"].At(0, 0)
	results[0].Values["best"].Set(0, 0, before+1e9)
	if leadRes.Values["best"].At(0, 0) != before {
		t.Fatal("mutating a follower's value changed the leader's")
	}
	for i := 1; i < followers; i++ {
		if results[i].Values["best"].At(0, 0) != before {
			t.Fatalf("mutating follower 0's value changed follower %d's", i)
		}
	}
	srv.Close()
	if snap := srv.Snapshot(); snap.Coalesced != followers {
		t.Fatalf("snapshot.Coalesced = %d, want %d", snap.Coalesced, followers)
	}
}

// TestCoalesceLateJoinersMatchWaiters: a follower joining after the leader
// finished gets exactly the same result and virtual latency as one that
// waited — admission timing is invisible in the outcome.
func TestCoalesceLateJoinersMatchWaiters(t *testing.T) {
	srv := New(coalesceConf(2))
	defer srv.Close()
	w := hcvWorkload()
	inputs := w.HostInputs()
	lead, err := srv.Submit("leader", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	leadRes, err := lead.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The leader is done; this submission joins the sealed group inline.
	late, err := srv.Submit("late", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	lateRes, err := late.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !lateRes.Coalesced || lateRes.CoalescedWith != leadRes.Ticket {
		t.Fatalf("late joiner not coalesced with leader: %+v", lateRes)
	}
	if want := leadRes.VirtualSeconds + expectedCopyCharge(leadRes); lateRes.VirtualSeconds != want {
		t.Fatalf("late joiner vtime = %v, want %v", lateRes.VirtualSeconds, want)
	}
	if !data.AllClose(lateRes.Values["best"], leadRes.Values["best"], 0) {
		t.Fatal("late joiner result differs from leader")
	}
}

// TestCoalesceCancelPaths: canceling a waiting follower resolves it with
// ErrCanceled without touching the group; canceling a queued leader fails
// the group over to its waiters; and no goroutine outlives Close on either
// path.
func TestCoalesceCancelPaths(t *testing.T) {
	// Warm process-wide pools so the goroutine baseline is stable.
	{
		srv := New(coalesceConf(2))
		w := hcvWorkload()
		f, err := srv.Submit("warm", w.Prog, SubmitOptions{Inputs: w.HostInputs()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	base := goruntime.NumGoroutine()

	srv := New(coalesceConf(1))
	w := hcvWorkload()
	inputs := w.HostInputs()
	hold := make(chan struct{})
	started := make(chan struct{})
	gate, err := srv.Submit("gate", trivialProg(), SubmitOptions{Bind: func(*runtime.Context) {
		close(started)
		<-hold
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	lead, err := srv.Submit("leader", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := srv.Submit("f1", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := srv.Submit("f2", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel one waiting follower: it resolves immediately with ErrCanceled
	// even though the leader has not run.
	f1.Cancel()
	if _, err := f1.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled follower err = %v, want ErrCanceled", err)
	}
	// Cancel the queued leader: the group fails over, so the remaining
	// waiter resolves with the leader's cancellation, not a hang.
	lead.Cancel()
	if _, err := lead.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled leader err = %v, want ErrCanceled", err)
	}
	if _, err := f2.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("orphaned follower err = %v, want wrapped ErrCanceled", err)
	}
	// Canceling a finished request is a no-op.
	f2.Cancel()
	close(hold)
	if _, err := gate.Wait(); err != nil {
		t.Fatal(err)
	}
	// A fresh submission after the failed group starts a new group and
	// succeeds — error-sealed groups must not capture new joiners.
	f3, err := srv.Submit("f3", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f3.Wait()
	if err != nil {
		t.Fatalf("post-cancel submission failed: %v", err)
	}
	if res.Coalesced {
		t.Fatal("post-cancel submission joined a dead group")
	}
	srv.Close()
	snap := srv.Snapshot()
	// f1 and the leader were canceled; the orphaned follower f2 counts as
	// failed (it resolved with the leader's cancellation), not canceled.
	if snap.Canceled != 2 {
		t.Fatalf("snapshot.Canceled = %d, want 2", snap.Canceled)
	}
	if snap.Failed != 1 {
		t.Fatalf("snapshot.Failed = %d, want 1 (the orphaned follower)", snap.Failed)
	}
	for i := 0; i < 100 && goruntime.NumGoroutine() > base; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after cancel paths: %d before, %d after\n%s",
			base, n, buf[:goruntime.Stack(buf, true)])
	}
}

// TestCoalesceDeadlinePropagates: a leader that misses the deadline fails
// its whole group with ErrDeadline; followers still receive their result
// copies, and no waiter goroutine leaks.
func TestCoalesceDeadlinePropagates(t *testing.T) {
	conf := coalesceConf(1)
	conf.Deadline = 1e-9
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	inputs := w.HostInputs()
	hold := make(chan struct{})
	started := make(chan struct{})
	gate, err := srv.Submit("gate", trivialProg(), SubmitOptions{Bind: func(*runtime.Context) {
		close(started)
		<-hold
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	lead, err := srv.Submit("leader", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := srv.Submit("fol", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	close(hold)
	if _, err := gate.Wait(); err != nil {
		t.Fatal(err)
	}
	leadRes, err := lead.Wait()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("leader err = %v, want ErrDeadline", err)
	}
	folRes, err := fol.Wait()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("follower err = %v, want wrapped ErrDeadline", err)
	}
	if folRes == nil || folRes.Values["best"] == nil {
		t.Fatal("deadline-failed follower must still carry the computed result")
	}
	if !data.AllClose(folRes.Values["best"], leadRes.Values["best"], 0) {
		t.Fatal("deadline-failed follower result differs from leader")
	}
	srv.Close()
	snap := srv.Snapshot()
	if snap.DeadlineFailures != 2 || snap.Failed != 2 {
		t.Fatalf("deadline_failures=%d failed=%d, want 2/2", snap.DeadlineFailures, snap.Failed)
	}
}

// TestCoalesceGroupsBounded submits twelve windows' worth of requests in four
// interleaved classes: one repeats the input of the ticket exactly
// CoalesceWindow earlier (the last that can still join its group), one the
// input of the ticket one further back (the first that cannot, and opens a
// new group under the old key), one submits each of its inputs four times in
// a row so that a group fills up (MaxBatch 2) and is replaced under its key
// while still inside the window, and one binds never-seen inputs, over four
// windows' worth of them in all. The group table must stay within
// CoalesceWindow entries, and every request must get the outcome an unpruned
// replay of the admission rule gives it: a model that keeps every group
// forever decides who joins whom, and a follower's virtual latency is its
// leader's plus the copy charge.
func TestCoalesceGroupsBounded(t *testing.T) {
	const window, tickets, maxBatch = 8, 12 * 8, 2
	prog := ridgeProg()
	var inputs []map[string]*data.Matrix
	idOf := make([]int, tickets+1) // input of each ticket, tickets start at 1
	for tk := 1; tk <= tickets; tk++ {
		switch {
		case tk%4 == 0 && tk > window:
			idOf[tk] = idOf[tk-window]
		case tk%4 == 1 && tk > window+1:
			idOf[tk] = idOf[tk-window-1]
		case tk%4 == 2 && (tk/4)%4 != 0:
			idOf[tk] = idOf[tk-4]
		default:
			idOf[tk] = len(inputs)
			inputs = append(inputs, ridgeInputs(int64(100+tk)))
		}
	}
	// The unpruned replay: one group per input (program and fetch set are
	// fixed, so the coalesce key is the input), never forgotten.
	leaderOf := make([]uint64, tickets+1) // 0: the ticket leads its own group
	latest := make(map[int]uint64)        // input -> leader of its latest group
	size := make(map[uint64]int)          // leader -> members
	followers := 0
	for tk := uint64(1); tk <= tickets; tk++ {
		if l, ok := latest[idOf[tk]]; ok && tk-l <= window && size[l] < maxBatch {
			leaderOf[tk] = l
			size[l]++
			followers++
		} else {
			latest[idOf[tk]] = tk
			size[tk] = 1
		}
	}
	if len(latest) < 4*window || followers < window {
		t.Fatalf("schedule too thin: %d distinct inputs, %d followers", len(latest), followers)
	}

	conf := coalesceConf(2)
	conf.CoalesceWindow = window
	conf.MaxBatch = maxBatch
	srv := New(conf)
	defer srv.Close()
	results := make([]*Result, tickets+1)
	for tk := uint64(1); tk <= tickets; tk++ {
		fut, err := srv.Submit(fmt.Sprintf("t%d", tk%3), prog, SubmitOptions{Inputs: inputs[idOf[tk]], Fetch: []string{"B"}})
		if err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		n, m := len(srv.groups), len(srv.groupOrder)
		srv.mu.Unlock()
		if n > window || m > window {
			t.Fatalf("ticket %d: %d groups, %d queued for expiry; window is %d", tk, n, m, window)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Ticket != tk {
			t.Fatalf("submission %d got ticket %d", tk, res.Ticket)
		}
		results[tk] = res
		if l := leaderOf[tk]; res.Coalesced != (l != 0) || res.CoalescedWith != l {
			t.Fatalf("ticket %d (input %d): coalesced=%v with %d, the unpruned replay joins it to %d",
				tk, idOf[tk], res.Coalesced, res.CoalescedWith, l)
		} else if l != 0 {
			if want := results[l].VirtualSeconds + expectedCopyCharge(results[l]); res.VirtualSeconds != want {
				t.Fatalf("ticket %d: %v virtual seconds, leader %d plus copy is %v", tk, res.VirtualSeconds, l, want)
			}
		}
	}
	if got := srv.Snapshot().Coalesced; got != int64(followers) {
		t.Fatalf("coalesced %d, the unpruned replay %d", got, followers)
	}
}
