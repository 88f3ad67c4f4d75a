package main

import (
	"strings"
	"testing"

	"memphis"
)

// TestParseReuse: every documented mode resolves to its own value, and a
// misspelt one is refused with the valid modes listed instead of running
// with reuse off.
func TestParseReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want memphis.Reuse
	}{
		{"full", memphis.ReuseFull},
		{"fine", memphis.ReuseFine},
		{"local", memphis.ReuseLocal},
		{"coarse", memphis.ReuseCoarse},
		{"off", memphis.ReuseOff},
	} {
		if got, err := parseReuse(tc.name); err != nil || got != tc.want {
			t.Errorf("parseReuse(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, bad := range []string{"ful", "", "FULL", "none"} {
		_, err := parseReuse(bad)
		if err == nil {
			t.Errorf("parseReuse(%q) accepted an unknown mode", bad)
		} else if !strings.Contains(err.Error(), "full|fine|local|coarse|off") {
			t.Errorf("parseReuse(%q): %v does not list the valid modes", bad, err)
		}
	}
}
