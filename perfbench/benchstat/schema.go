package benchstat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// Spec is BENCHMARK.json: the benchmark's command, workloads and metrics.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload is one named input set and why it is in the benchmark.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one reported figure. Bound (end-to-end only) is the share of
// the parent's median by which the metric may worsen.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)

// ParseSpec decodes and validates BENCHMARK.json: exact key sets, counts,
// name/unit alphabets, unique names, bounds at most 0.25, and a setup_s
// end-to-end metric in seconds, lower-is-better.
func ParseSpec(doc []byte) (*Spec, error) {
	if len(doc) > 64<<10 {
		return nil, fmt.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(doc))
	}
	if err := exactKeys(doc, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"); err != nil {
		return nil, err
	}
	var raw struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &raw); err != nil {
		return nil, err
	}
	for _, w := range raw.Workloads {
		if err := exactKeys(w, "name", "why"); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
	}
	for _, m := range raw.EndToEnd {
		if err := exactKeys(m, "name", "unit", "better", "bound"); err != nil {
			return nil, fmt.Errorf("end_to_end: %w", err)
		}
	}
	for _, m := range raw.PerLayer {
		if err := exactKeys(m, "name", "unit", "better"); err != nil {
			return nil, fmt.Errorf("per_layer: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	return &s, s.validate()
}

func (s *Spec) validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d entries, want 1-32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command entry %q: over 200 characters, absolute, or leaves the repo", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1-16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative path of [A-Za-z0-9_./-]", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1-60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1-16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1-128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !ValidName(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := checkMetric(m, use); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s with unit s, better lower")
	}
	for _, m := range s.PerLayer {
		if err := checkMetric(m, use); err != nil {
			return err
		}
	}
	return nil
}

func checkMetric(m Metric, use func(string) error) error {
	if err := use(m.Name); err != nil {
		return err
	}
	if !ValidUnit(m.Unit) {
		return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %s: better must be lower or higher, got %q", m.Name, m.Better)
	}
	return nil
}

// exactKeys checks that the JSON object doc has exactly the given keys.
func exactKeys(doc []byte, keys ...string) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(doc, &obj); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
		if _, ok := obj[k]; !ok {
			return fmt.Errorf("missing key %q", k)
		}
	}
	for k := range obj {
		if !want[k] {
			return fmt.Errorf("unexpected key %q", k)
		}
	}
	return nil
}
