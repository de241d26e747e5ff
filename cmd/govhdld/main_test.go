package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagSet pins govhdld's flags: adding or removing one shows up here.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("govhdld", flag.ContinueOnError)
	registerFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := "cache-bytes default-deadline listen max-deadline max-sessions max-workers queue"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("govhdld flags:\n got %s\nwant %s", got, want)
	}
}
