package main

import (
	"testing"

	"repro/internal/workload"
)

func TestParseResidency(t *testing.T) {
	cases := map[string]workload.Residency{
		"":       workload.DefaultResidency,
		"memory": workload.MemoryResident,
		"disk":   workload.DiskResident,
		"DISK":   workload.DiskResident,
	}
	for in, want := range cases {
		got, err := parseResidency(in)
		if err != nil || got != want {
			t.Errorf("parseResidency(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseResidency("tape"); err == nil {
		t.Error("unknown residency must fail")
	}
}

func TestSelectCurves(t *testing.T) {
	all, err := selectCurves("all")
	if err != nil || len(all) != len(workload.Curves) {
		t.Fatalf("all = %d curves, %v", len(all), err)
	}
	got, err := selectCurves("IV, IVp")
	if err != nil || len(got) != 2 || got[0].Name != "IV" || got[1].Name != "IVp" {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := selectCurves("9"); err == nil {
		t.Error("an unknown curve must fail, not print nothing")
	}
}

func TestCheckMode(t *testing.T) {
	var m checkMode
	for in, want := range map[string]checkMode{"true": "all", "all": "all", "counters": "counters", "false": ""} {
		if err := m.Set(in); err != nil || m != want {
			t.Errorf("Set(%q) = %q, %v; want %q", in, m, err, want)
		}
	}
	if err := m.Set("time"); err == nil {
		t.Error("unknown mode must fail")
	}
}
