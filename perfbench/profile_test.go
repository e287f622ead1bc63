package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).popEvent":         "sim",
		"repro/internal/core.(*Communicator).run.func1": "core",
		"repro/internal/stats.Summarize":                "unattributed",
		"repro.NewSystem":                               "unattributed",
		"main.(*ag188).op":                              "unattributed",
		"slices.SortFunc[...]":                          "",
		"runtime.mallocgc":                              "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeProfile decodes a real CPU profile: every sampled
// nanosecond lands in exactly one share.
func TestAttributeProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += i ^ x
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := attributeProfile(path)
	if err != nil {
		t.Fatalf("attributeProfile: %v (spin result %d)", err, x)
	}
	if len(shares) != len(shareLayers)+2 {
		t.Errorf("got %d shares, want %d", len(shares), len(shareLayers)+2)
	}
}

func TestDecodeProfileRejectsTruncation(t *testing.T) {
	// Field 6 (string_table), length 5, but only 2 bytes follow.
	if _, err := decodeProfile([]byte{6<<3 | 2, 5, 'a', 'b'}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
