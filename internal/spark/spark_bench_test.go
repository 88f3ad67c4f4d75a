package spark

import (
	"sync"
	"testing"

	"memphis/internal/data"
)

var benchParts []*data.Matrix

// BenchmarkParallelizeEvaluate distributes one HCV-sized matrix (32000x48)
// over 8 partitions and evaluates the unpersisted RDD twice, as two jobs over
// the same input do. "views" is Parallelize as it is: each evaluation builds
// eight matrix headers. "copies" swaps in the partition function it had
// before, which copied every partition's rows on every evaluation (12 MB per
// job here).
func BenchmarkParallelizeEvaluate(b *testing.B) {
	prev := data.Parallelism()
	b.Cleanup(func() { data.SetParallelism(prev) })
	data.SetParallelism(1)
	m := data.Rand(32000, 48, -1, 1, 1, 1)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	run := func(b *testing.B, copies bool) {
		c, _ := newTestContext(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := c.Parallelize(m, len(all), "X")
			if copies {
				r.compute = func(part int, _ [][]*data.Matrix) *data.Matrix {
					lo, hi := rowsOfPart(m.Rows, len(all), part)
					return m.SliceRows(lo, hi)
				}
			}
			benchParts, _ = c.RunJob(r, all, false)
			benchParts, _ = c.RunJob(r, all, false)
		}
	}
	b.Run("views", func(b *testing.B) { run(b, false) })
	b.Run("copies", func(b *testing.B) { run(b, true) })
}

// TestParallelizedPartitionsShareTheBase evaluates the partitions of one
// parallelized matrix from the prewarm workers while the driver goroutine of
// the test reads the base. Partitions are views of the base, so under -race
// this fails if any kernel on the path writes to its argument; the collected
// result must be the base's doubled rows and the base itself unchanged.
func TestParallelizedPartitionsShareTheBase(t *testing.T) {
	prev := data.Parallelism()
	defer data.SetParallelism(prev)
	data.SetParallelism(8)
	c, _ := newTestContext(0)
	m := data.RandNorm(4096, 16, 0, 1, 5)
	sum := m.Checksum()
	r := c.Parallelize(m, 8, "X")
	doubled := r.MapPartitions("x2", m.Rows, m.Cols,
		func(int) float64 { return data.MinParallelWork }, nil, // enough estimated work to fan out
		func(_ int, p *data.Matrix) *data.Matrix { return data.MulScalar(p, 2) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if m.Checksum() != sum {
					t.Error("the base changed while its partitions were evaluated")
					return
				}
			}
		}
	}()
	for i := 0; i < 4; i++ {
		got := c.Collect(doubled)
		if !data.AllClose(got, data.MulScalar(m, 2), 0) {
			t.Errorf("job %d: collected partitions differ from the doubled base", i)
		}
	}
	close(stop)
	wg.Wait()
	parts, _ := c.RunJob(r, []int{0, 7}, false)
	if &parts[0].Data[0] != &m.Data[0] || &parts[1].Data[len(parts[1].Data)-1] != &m.Data[len(m.Data)-1] {
		t.Error("partitions of a parallelized matrix are copies, not views of it")
	}
	if m.Checksum() != sum {
		t.Error("the base changed")
	}
}
