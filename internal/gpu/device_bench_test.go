package gpu

import (
	"testing"

	"memphis/internal/data"
)

var benchHost *data.Matrix

// BenchmarkH2DRoundTrip uploads a 1 MB matrix, reads it back and frees the
// pointer. "alias" is the device as it is: both directions are charged and
// counted but share the matrix. "copy" adds the two clones the simulator made
// before, one per direction.
func BenchmarkH2DRoundTrip(b *testing.B) {
	m := data.Rand(2048, 64, -1, 1, 1, 1)
	run := func(b *testing.B, copies bool) {
		d, _ := newTestDevice(48 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := m
			if copies {
				src = m.Clone()
			}
			p, err := d.H2D(src)
			if err != nil {
				b.Fatal(err)
			}
			benchHost = d.D2H(p)
			if copies {
				benchHost = benchHost.Clone()
			}
			d.Free(p)
		}
		if d.Stats.H2DBytes != int64(b.N)*m.SizeBytes() || d.Stats.D2HBytes != d.Stats.H2DBytes {
			b.Fatalf("transfers not accounted in full: %+v", d.Stats)
		}
	}
	b.Run("alias", func(b *testing.B) { run(b, false) })
	b.Run("copy", func(b *testing.B) { run(b, true) })
}
