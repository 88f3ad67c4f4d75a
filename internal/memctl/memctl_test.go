package memctl

import "testing"

// TestLifetimeString: every lifetime class prints its own name.
func TestLifetimeString(t *testing.T) {
	for l, want := range map[Lifetime]string{LifeDead: "dead", LifeUnknown: "unknown", LifeSoon: "soon"} {
		if got := l.String(); got != want {
			t.Errorf("Lifetime(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}
