package serve

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"memphis/internal/costs"
	"memphis/internal/data"
	"memphis/internal/faults"
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
// fetched value. The server's worker starts after every submission, so the
// leader sits queued while the followers join: they exercise the
// pending-group (waiter fan-out) path.
func TestCoalesceIndependentCopies(t *testing.T) {
	const followers = 4
	srv := newServer(coalesceConf(1))
	defer srv.Close()
	w := hcvWorkload()
	inputs := w.HostInputs()

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
	srv.startWorkers()
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

// TestCoalesceLeaderEditDoesNotReachLateJoiner: the group keeps the
// leader's session values and the leader's caller gets its own copy, so an
// edit by that caller never reaches a follower that joins the sealed group
// afterwards.
func TestCoalesceLeaderEditDoesNotReachLateJoiner(t *testing.T) {
	srv := New(coalesceConf(1))
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
	computed := leadRes.Values["best"].Clone()
	leadRes.Values["best"].Set(0, 0, computed.At(0, 0)+1e9)
	late, err := srv.Submit("late", w.Prog, SubmitOptions{Inputs: inputs, Fetch: []string{"best"}})
	if err != nil {
		t.Fatal(err)
	}
	lateRes, err := late.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !lateRes.Coalesced {
		t.Fatal("the late submission did not join the sealed group")
	}
	if got := lateRes.Values["best"].At(0, 0); got != computed.At(0, 0) || !data.AllClose(lateRes.Values["best"], computed, 0) {
		t.Fatalf("late joiner read best[0,0] = %v, want the computed %v", got, computed.At(0, 0))
	}
}

// TestCoalesceLeaderFailureFansOut: a leader that fails past the retry
// budget seals its group with the error. Every follower that waited on it
// fails with an error wrapping the leader's, each counts as a failure, and a
// later submission under the same key opens a new group and succeeds.
func TestCoalesceLeaderFailureFansOut(t *testing.T) {
	const followers = 3
	conf := coalesceConf(1)
	// Ticket 1 is the leader: its worker crashes on more attempts than the
	// retry budget allows. The worker starts once the followers have
	// joined its group.
	conf.Faults = &faults.Plan{Seed: 5, Sites: map[faults.Site]faults.Trigger{
		faults.ServeRequest: {Nth: []int64{1}, Attempts: maxRetries + 3},
	}}
	srv := newServer(conf)
	defer srv.Close()
	w := hcvWorkload()
	inputs := w.HostInputs()
	opts := SubmitOptions{Inputs: inputs, Fetch: []string{"best"}}
	lead, err := srv.Submit("leader", w.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, followers)
	for i := range futs {
		if futs[i], err = srv.Submit(fmt.Sprintf("f%d", i), w.Prog, opts); err != nil {
			t.Fatal(err)
		}
	}
	srv.startWorkers()
	res, leadErr := lead.Wait()
	if leadErr == nil || res != nil {
		t.Fatalf("leader scripted to crash %d attempts returned %v, %v", maxRetries+3, res, leadErr)
	}
	for i, f := range futs {
		if res, err := f.Wait(); res != nil || !errors.Is(err, leadErr) {
			t.Fatalf("follower %d: %v, %v; want no result and an error wrapping %q", i, res, err, leadErr)
		}
	}
	if snap := srv.Snapshot(); snap.Failed != 1+followers || snap.Coalesced != followers {
		t.Fatalf("failed=%d coalesced=%d, want %d and %d", snap.Failed, snap.Coalesced, 1+followers, followers)
	}
	// The error-sealed group takes no joiner: this submission leads its own.
	again, err := srv.Submit("again", w.Prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := again.Wait(); err != nil || res.Coalesced || res.Ticket != 2+followers {
		t.Fatalf("resubmission: %+v, %v; want ticket %d executed on its own", res, err, 2+followers)
	}
	srv.Close()
	if snap := srv.Snapshot(); snap.Failed != 1+followers || snap.Completed != 2+followers || snap.Retries != maxRetries {
		t.Fatalf("failed=%d completed=%d retries=%d, want %d, %d and %d",
			snap.Failed, snap.Completed, snap.Retries, 1+followers, 2+followers, maxRetries)
	}
}

// TestCoalesceGroupsBounded submits four windows' worth of requests (a
// window is coalesceWindow tickets) in four interleaved classes: one repeats
// the input of the ticket exactly a window earlier (the last that can still
// join its group), one the input of the ticket one further back (the first
// that cannot, so it opens a new group under the old key in every window),
// one submits each of its inputs four times in a row so that a group fills up
// (MaxBatch 2) and is replaced under its key while still inside the window,
// and one binds never-seen inputs, more than a window's worth of them in
// all. The group table must stay within the window, and every request must
// get the outcome an unpruned replay of the admission rule gives it: a model
// that keeps every group forever decides who joins whom, and a follower's
// virtual latency is its leader's plus the copy charge.
func TestCoalesceGroupsBounded(t *testing.T) {
	const window, tickets, maxBatch = coalesceWindow, 4 * coalesceWindow, 2
	prog := trivialProg()
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
			inputs = append(inputs, map[string]*data.Matrix{"X": data.Fill(2, 2, float64(tk))})
		}
	}
	// The unpruned replay: one group per input (program and fetch set are
	// fixed, so the coalesce key is the input), never forgotten.
	leaderOf := make([]uint64, tickets+1) // 0: the ticket leads its own group
	latest := make(map[int]uint64)        // input -> leader of its latest group
	size := make(map[uint64]int)          // leader -> members
	followers, reopened := 0, 0
	for tk := uint64(1); tk <= tickets; tk++ {
		l, ok := latest[idOf[tk]]
		switch {
		case ok && tk-l <= window && size[l] < maxBatch:
			leaderOf[tk] = l
			size[l]++
			followers++
		case ok:
			reopened++
			fallthrough
		default:
			latest[idOf[tk]] = tk
			size[tk] = 1
		}
	}
	if len(latest) <= window || followers < window/2 || reopened < window/2 {
		t.Fatalf("schedule too thin: %d distinct inputs, %d followers, %d groups reopened", len(latest), followers, reopened)
	}

	conf := coalesceConf(2)
	conf.MaxBatch = maxBatch
	srv := New(conf)
	defer srv.Close()
	results := make([]*Result, tickets+1)
	for tk := uint64(1); tk <= tickets; tk++ {
		fut, err := srv.Submit(fmt.Sprintf("t%d", tk%3), prog, SubmitOptions{Inputs: inputs[idOf[tk]], Fetch: []string{"X"}})
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
