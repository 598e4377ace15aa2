package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"pushpull"
	"pushpull/api"
)

// Output checks. Every timed operation is checked against a reference
// computed once at set-up through the library path (pushpull.Run), so a
// wrong answer counts as a failed operation however fast it came back.

const (
	prTol = 1e-9 // pr ranks, absolute, against the same direction's reference
	bcTol = 1e-6 // bc scores, relative, against the same direction's reference
)

// checkClose accepts got when every entry is within tol of want
// (absolute, or relative to |want| when relative is set).
func checkClose(got, want []float64, tol float64, relative bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		lim := tol
		if relative {
			lim = tol * math.Max(1, math.Abs(want[i]))
		}
		if !(math.Abs(got[i]-want[i]) <= lim) && !(math.IsInf(got[i], 1) && math.IsInf(want[i], 1)) {
			return fmt.Errorf("entry %d = %v, want %v (tolerance %g)", i, got[i], want[i], lim)
		}
	}
	return nil
}

// checkExact accepts got only when it equals want entry by entry
// (sssp distances; +Inf marks an unreached vertex on both sides).
func checkExact(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkEqual accepts got only when it equals want (bfs levels, tc counts).
func checkEqual[T comparable](got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkColoring accepts any proper colouring of g: gc's colours depend on
// thread interleaving, its properness does not.
func checkColoring(g *pushpull.Graph, colors []int32) error {
	if len(colors) != g.N() {
		return fmt.Errorf("%d colours for %d vertices", len(colors), g.N())
	}
	return pushpull.ValidateColoring(g, colors)
}

// libRef is the library-path reference of one (algorithm, direction) run.
type libRef struct {
	algo   string
	g      *pushpull.Graph
	ranks  []float64 // pr ranks, bc scores or sssp distances
	levels []int32
	counts []int64
	weight float64 // mst total weight
}

// newLibRef captures the reference payload of rep.
func newLibRef(algo string, g *pushpull.Graph, rep *pushpull.Report) *libRef {
	r := &libRef{algo: algo, g: g, ranks: rep.Ranks(), counts: rep.Counts()}
	if t := rep.Tree(); t != nil {
		r.levels = t.Level
	}
	if m, ok := rep.Result.(*pushpull.MSTResult); ok {
		r.weight = m.TotalWeight
	}
	return r
}

// check compares a report of the same run against the reference.
func (r *libRef) check(rep *pushpull.Report) error {
	if rep.Stats.Canceled {
		return fmt.Errorf("%s: run was canceled", r.algo)
	}
	var err error
	switch r.algo {
	case "pr":
		err = checkClose(rep.Ranks(), r.ranks, prTol, false)
	case "bc":
		err = checkClose(rep.Ranks(), r.ranks, bcTol, true)
	case "sssp":
		err = checkExact(rep.Ranks(), r.ranks)
	case "bfs":
		t := rep.Tree()
		if t == nil {
			return fmt.Errorf("bfs: no tree in the report")
		}
		err = checkEqual(t.Level, r.levels)
	case "tc":
		err = checkEqual(rep.Counts(), r.counts)
	case "gc":
		err = checkColoring(r.g, rep.Colors())
	case "mst":
		m, ok := rep.Result.(*pushpull.MSTResult)
		switch {
		case !ok:
			err = fmt.Errorf("no MST in the report")
		case m.TotalWeight != r.weight:
			err = fmt.Errorf("weight %v, want %v", m.TotalWeight, r.weight)
		}
	default:
		err = fmt.Errorf("no checker")
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.algo, err)
	}
	return nil
}

// ---- wire checks ----

// wireRef checks a POST /run (or job result) body against the reference
// bytes of its payload field, as api.BuildResponse and encoding/json
// write them. The body is never decoded whole: the field is located by
// its key and compared byte for byte, and only a mismatch falls back to
// parsing that one array.
type wireRef struct {
	algo  string
	field string // "ranks", "levels" or "colors"
	want  []byte // the reference array, brackets included
	g     *pushpull.Graph
}

// wireField names the payload field the wire check compares per algorithm.
var wireField = map[string]string{"pr": "ranks", "sssp": "ranks", "bfs": "levels", "gc": "colors"}

// newWireRef encodes rep the way the worker does and keeps the payload
// field's bytes.
func newWireRef(algo string, g *pushpull.Graph, rep *pushpull.Report) (*wireRef, error) {
	field, ok := wireField[algo]
	if !ok {
		return nil, fmt.Errorf("%s has no wire payload to check", algo)
	}
	body, err := json.Marshal(api.BuildResponse("ref", rep))
	if err != nil {
		return nil, err
	}
	want, err := jsonArray(body, field)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", algo, err)
	}
	return &wireRef{algo: algo, field: field, want: bytes.Clone(want), g: g}, nil
}

// check accepts body when its payload field matches the reference.
func (r *wireRef) check(body []byte) error {
	got, err := jsonArray(body, r.field)
	if err != nil {
		return fmt.Errorf("%s: %w", r.algo, err)
	}
	if bytes.Equal(got, r.want) {
		return nil
	}
	switch r.algo {
	case "pr":
		g, err1 := parseFloats(got)
		w, err2 := parseFloats(r.want)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("pr: unparsable ranks")
		}
		if err := checkClose(g, w, prTol, false); err != nil {
			return fmt.Errorf("pr: %w", err)
		}
		return nil
	case "gc":
		colors, err := parseInts(got)
		if err != nil {
			return fmt.Errorf("gc: unparsable colors: %w", err)
		}
		c32 := make([]int32, len(colors))
		for i, c := range colors {
			c32[i] = int32(c)
		}
		if err := checkColoring(r.g, c32); err != nil {
			return fmt.Errorf("gc: %w", err)
		}
		return nil
	}
	return fmt.Errorf("%s: %s differs from the reference", r.algo, r.field)
}

// jsonArray returns the bytes of the flat array stored under key in a
// JSON object body, brackets included. The payload arrays hold numbers
// and nulls only, so the first ']' closes them.
func jsonArray(body []byte, key string) ([]byte, error) {
	k := []byte(`"` + key + `":[`)
	i := bytes.Index(body, k)
	if i < 0 {
		return nil, fmt.Errorf("no %q array in the response", key)
	}
	start := i + len(k) - 1
	end := bytes.IndexByte(body[start:], ']')
	if end < 0 {
		return nil, fmt.Errorf("unterminated %q array", key)
	}
	return body[start : start+end+1], nil
}

// jsonInt returns the integer stored under key (the first occurrence).
func jsonInt(body []byte, key string) (int64, bool) {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(body, k)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(k):]
	n := 0
	for n < len(rest) && (rest[n] == '-' || rest[n] >= '0' && rest[n] <= '9') {
		n++
	}
	v, err := strconv.ParseInt(string(rest[:n]), 10, 64)
	return v, err == nil
}

// jsonTrue reports whether key holds the literal true.
func jsonTrue(body []byte, key string) bool {
	return bytes.Contains(body, []byte(`"`+key+`":true`))
}

// jsonString returns the string stored under key (no escapes expected).
func jsonString(body []byte, key string) (string, bool) {
	k := []byte(`"` + key + `":"`)
	i := bytes.Index(body, k)
	if i < 0 {
		return "", false
	}
	rest := body[i+len(k):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", false
	}
	return string(rest[:end]), true
}

// parseFloats parses a JSON number array; null stands for +Inf, as
// api.Floats writes it.
func parseFloats(arr []byte) ([]float64, error) {
	var out []float64
	err := eachElem(arr, func(tok []byte) error {
		if string(tok) == "null" {
			out = append(out, math.Inf(1))
			return nil
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		out = append(out, v)
		return err
	})
	return out, err
}

// parseInts parses a JSON integer array.
func parseInts(arr []byte) ([]int64, error) {
	var out []int64
	err := eachElem(arr, func(tok []byte) error {
		v, err := strconv.ParseInt(string(tok), 10, 64)
		out = append(out, v)
		return err
	})
	return out, err
}

func eachElem(arr []byte, f func([]byte) error) error {
	if len(arr) < 2 || arr[0] != '[' || arr[len(arr)-1] != ']' {
		return fmt.Errorf("not an array")
	}
	inner := arr[1 : len(arr)-1]
	if len(inner) == 0 {
		return nil
	}
	for _, tok := range bytes.Split(inner, []byte(",")) {
		if err := f(tok); err != nil {
			return err
		}
	}
	return nil
}
