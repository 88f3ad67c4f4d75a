package serve

import (
	"fmt"
	"testing"

	"memphis/internal/data"
	"memphis/internal/lineage"
)

// BenchmarkSharedPublishEvict publishes into a tenant whose budget holds
// exactly `resident` entries, so every publish first evicts the tenant's
// oldest one: the steady state of a long-lived server. The ref variants run
// the same publishes with the full-scan victim search the index replaced.
func BenchmarkSharedPublishEvict(b *testing.B) {
	val := data.New(8, 8) // 512 B: bookkeeping, not copying
	leaf := lineage.NewLeaf("read", "X")
	const sig = 0x9e3779b97f4a7c15 // full width, as real signatures are
	for _, ref := range []bool{false, true} {
		for _, resident := range []int{512, 4096} {
			name := fmt.Sprint(resident)
			if ref {
				name = "ref/" + name
			}
			b.Run(name, func(b *testing.B) {
				s := NewSharedCache(SharedConfig{Budget: 1 << 40, TenantBudget: int64(resident) * val.SizeBytes()})
				if ref {
					withReferenceEviction(s)
				}
				items := make([]*lineage.Item, resident+b.N)
				for i := range items {
					items[i] = lineage.NewItem("probe", "", leaf, lineage.NewLeaf("lit", fmt.Sprint(i)))
				}
				for _, it := range items[:resident] {
					s.Publish("t0", it, sig, val, 1e-3)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for _, it := range items[resident:] {
					if _, stored := s.Publish("t0", it, sig, val, 1e-3); !stored {
						b.Fatal("publish rejected")
					}
				}
				b.StopTimer()
				if got := s.StatsSnapshot().Evictions; got != int64(b.N) {
					b.Fatalf("%d evictions for %d publishes", got, b.N)
				}
			})
		}
	}
}

// BenchmarkSubmitCoalesced times a submission that joins a coalesce group
// whose leader has already finished: it is served inside Submit for the price
// of fingerprinting its inputs and copying the fetched value. Three requests
// in four of the serve-zipf benchmark workload take this path. A group takes
// joiners for coalesceWindow tickets, so a new leader runs, untimed, at the
// start of every window.
func BenchmarkSubmitCoalesced(b *testing.B) {
	conf := coalesceConf(1)
	conf.MaxBatch = coalesceWindow + 1
	srv := New(conf)
	defer srv.Close()
	w := hcvWorkload()
	opts := SubmitOptions{Inputs: w.HostInputs(), Fetch: []string{"best"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%coalesceWindow == 0 {
			b.StopTimer()
			lead, err := srv.Submit("leader", w.Prog, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res, err := lead.Wait(); err != nil || res.Coalesced {
				b.Fatalf("the previous group is still open past its window: %v", err)
			}
			b.StartTimer()
		}
		fut, err := srv.Submit("follower", w.Prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := fut.Wait(); err != nil || !res.Coalesced {
			b.Fatalf("not served as a follower: %v", err)
		}
	}
}
