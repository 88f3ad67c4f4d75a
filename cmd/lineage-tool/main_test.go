package main

import (
	"io"
	"os"
	"testing"
)

// capture runs f with os.Stdout and os.Stderr redirected and returns what it
// wrote to each.
func capture(t *testing.T, f func() error) (stdout, stderr string) {
	t.Helper()
	read := func(r *os.File, into *string, done chan<- struct{}) {
		b, _ := io.ReadAll(r)
		*into = string(b)
		close(done)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outDone, errDone := make(chan struct{}), make(chan struct{})
	go read(outR, &stdout, outDone)
	go read(errR, &stderr, errDone)
	saved, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	runErr := f()
	os.Stdout, os.Stderr = saved, savedErr
	outW.Close()
	errW.Close()
	<-outDone
	<-errDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	return stdout, stderr
}

// TestDemoOutputIsPinned: the demo's printed value (stderr) and lineage log
// (stdout) are byte for byte testdata/demo.golden, which holds stderr then
// stdout. The log is the lineage the session's symbol table binds to beta;
// a change to tracing, probing or compaction that moved an item's opcode,
// data or inputs shows here.
func TestDemoOutputIsPinned(t *testing.T) {
	stdout, stderr := capture(t, demo)
	want, err := os.ReadFile("testdata/demo.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stderr + stdout; got != string(want) {
		t.Fatalf("demo output:\n%s\nwant:\n%s", got, want)
	}
}
