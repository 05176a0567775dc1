package main

import (
	"testing"
)

// TestDefinitionMatchesProgram pins BENCHMARK.json to the program both
// ways: every workload and metric it declares is one the program runs or
// prints, with the same unit, and every one the program prints is
// declared. The smoke test then checks that a run really emits them.
func TestDefinitionMatchesProgram(t *testing.T) {
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the program runs %v", names, workloads)
	}
	for i := range names {
		if i >= len(workloads) || names[i] != workloads[i] {
			t.Errorf("BENCHMARK.json declares workloads %v, the program runs %v", names, workloads)
			break
		}
	}
	pin := func(kind string, declared []declared, emitted []metricDef) {
		d := map[string]string{}
		for _, m := range declared {
			d[m.Name] = m.Unit
		}
		e := map[string]string{}
		for _, m := range emitted {
			e[m.name] = m.unit
		}
		for name, unit := range d {
			if u, ok := e[name]; !ok {
				t.Errorf("%s metric %q is declared but never printed", kind, name)
			} else if u != unit {
				t.Errorf("%s metric %q: declared in %s, printed in %s", kind, name, unit, u)
			}
		}
		for name := range e {
			if _, ok := d[name]; !ok {
				t.Errorf("%s metric %q is printed but not declared", kind, name)
			}
		}
	}
	pin("end_to_end", def.EndToEnd, endToEnd)
	pin("per_layer", def.PerLayer, perLayer)

	var setupBound, maxBound float64
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", def.Paths)
	}
}
