package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/apps/heat"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                        "runtime",
		"sync.(*Mutex).Lock":                      "runtime",
		"internal/sync.(*Mutex).Unlock":           "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"repro/internal/vclock.(*vparker).park":   "vclock",
		"repro/internal/vsync.(*Queue[go.shape.struct { repro/internal/fabric.m *repro/internal/fabric.Message }]).PopAll": "vsync",
		"repro/internal/fabric.(*Fabric).Send":   "fabric",
		"repro/internal/obs/critpath.Analyze":    "obs",
		"repro/internal/apps/heat.(*grid).sweep": "apps",
		"repro/internal/memory.F64.At":           "apps",
		"repro/internal/core.StartService.func1": "tasking",
		"repro/internal/cluster.Run.func1":       "other",
		"main.checkHeat":                         "other",
		"type:.eq.repro/internal/fabric.pathKey": "fabric",
		"encoding/binary.littleEndian.Uint64":    "",
		"math.Float64frombits":                   "",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUSharesAttributesAppWork profiles a serial heat solve: the apps
// layer, which owns the sweep and its inlined standard-library helpers,
// must get samples, and no simulator layer any. (Without -race apps takes
// well over half; under -race the race runtime's frames take most.)
func TestCPUSharesAttributesAppWork(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	p := heat.Params{Rows: 256, Cols: 256, Timesteps: 20}
	for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
		heat.Serial(p)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range cpuBuckets {
		total += shares[b]
	}
	if total < 99.9 || total > 100.1 {
		t.Fatalf("shares sum to %.2f%%: %v", total, shares)
	}
	if shares["apps"] == 0 {
		t.Fatalf("apps share %.1f%% of a serial heat solve: %v", shares["apps"], shares)
	}
	for _, b := range cpuBuckets {
		if b != "apps" && b != "runtime" && b != "other" && shares[b] != 0 {
			t.Fatalf("%s share %.1f%% of a serial heat solve: %v", b, shares[b], shares)
		}
	}
}
