package server

import (
	"fmt"
	"net/url"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The parameter tables held to their promise: one row per knob, and a knob
// cannot exist in one derived place (decoder, key, reference) without the
// others. The tests iterate the rows; the one hand list is a valid
// non-default value per name, which a new row must extend.

// nonDefault is a valid value other than the default for every wire name.
var nonDefault = map[string]string{
	"profile": "onos", "topology": "large", "cluster": "5", "scenario": "1", "compute": "7",
	"ac": "0.9", "av": "0.91", "ah": "0.92", "ar": "0.93", "a": "0.94", "as": "0.95", "timeout": "3s",
	"horizon": "300", "reps": "33", "ci_target": "0.01", "min_reps": "9", "max_reps": "99", "seed": "5",
	"headless": "0.5", "rare": "true", "rare_bias": "4", "rare_hw_bias": "2", "rare_link_bias": "3",
	"rare_split_factor": "4", "rare_split_levels": "2,3", "rel_target": "0.2",
	"hours": "50", "mtbf": "25", "hosts": "2",
}

// unkeyedNames lists the rows without a get: the parameters that bound a
// computation without being part of its key.
func unkeyedNames[R any](t *paramTable[R]) string {
	var out []string
	for _, p := range t.rows {
		if p.get == nil {
			out = append(out, p.name)
		}
	}
	return strings.Join(out, " ")
}

// names lists a table's wire names in order.
func names[R any](t *paramTable[R]) []string {
	out := make([]string, len(t.rows))
	for i, p := range t.rows {
		out[i] = p.name
	}
	return out
}

// allNonDefault is the query setting every row of table off its default.
func allNonDefault[R any](t *testing.T, table *paramTable[R]) url.Values {
	t.Helper()
	q := url.Values{}
	for _, p := range table.rows {
		v, ok := nonDefault[p.name]
		if !ok {
			t.Fatalf("row %q has no entry in nonDefault: add a valid non-default value", p.name)
		}
		q.Set(p.name, v)
	}
	return q
}

// leavesAtDefault walks two values of one struct type and returns the
// paths of the leaf fields that are equal in both. Structs are walked
// field by field; everything else (pointers included) is a leaf.
func leavesAtDefault(path string, got, def reflect.Value) []string {
	if got.Kind() != reflect.Struct {
		if reflect.DeepEqual(got.Interface(), def.Interface()) {
			return []string{path}
		}
		return nil
	}
	var same []string
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if path != "" {
			name = path + "." + name
		}
		same = append(same, leavesAtDefault(name, got.Field(i), def.Field(i))...)
	}
	return same
}

// TestParamTablesShape: names are unique, the Monte Carlo family's tables
// nest, and the unkeyed rows are exactly the ones that may be.
func TestParamTablesShape(t *testing.T) {
	for _, ns := range [][]string{names(mcTable), names(soakTable)} {
		seen := map[string]bool{}
		for _, n := range ns {
			if seen[n] {
				t.Errorf("parameter %q has two rows in one table", n)
			}
			seen[n] = true
		}
	}
	all := names(mcTable)
	if !reflect.DeepEqual(names(modelTable), all[:len(modelTable.rows)]) {
		t.Errorf("tables do not nest:\nmodel %v\nmc    %v", names(modelTable), all)
	}
	if len(modelTable.rows) >= len(mcTable.rows) {
		t.Error("the mc table must add parameters to the model table")
	}
	// A name joins these lists only with an argument for why two requests
	// differing in it are the same computation.
	if got, want := unkeyedNames(mcTable), "timeout"; got != want {
		t.Errorf("unkeyed rows %q, want %q: a row without a get is not part of the cache key or the store digest", got, want)
	}
	if got, want := unkeyedNames(soakTable), "timeout"; got != want {
		t.Errorf("unkeyed soak rows %q, want %q", got, want)
	}
}

// TestParamDefaultsSpelledOut: for every keyed row, leaving the parameter
// out and spelling its default out are the same computation — with rare
// mode off and on.
func TestParamDefaultsSpelledOut(t *testing.T) {
	for _, baseQS := range []string{"", "rare=true"} {
		base, err := decodeMC(mustValues(t, baseQS))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range mcTable.rows {
			if p.get == nil || p.get(&base) == "" {
				continue
			}
			q := mustValues(t, baseQS)
			q.Set(p.name, p.get(&base))
			r, err := decodeMC(q)
			if err != nil {
				t.Errorf("%s: default spelled out (%q) does not decode: %v", p.name, q.Encode(), err)
				continue
			}
			if mcCanonical(r) != mcCanonical(base) {
				t.Errorf("%s: %q and %q differ:\n%s\n%s", p.name, q.Encode(), baseQS, mcCanonical(r), mcCanonical(base))
			}
		}
	}
	base, err := decodeSoak(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range soakTable.rows {
		if p.get == nil {
			continue
		}
		r, err := decodeSoak(url.Values{p.name: {p.get(&base)}})
		if err != nil || r != base {
			t.Errorf("%s: default spelled out decodes to %+v (%v), want %+v", p.name, r, err, base)
		}
	}
}

// TestEveryFieldHasARow: a query setting every row off its default leaves
// no field of the request structs at its default — so a field added
// without a row fails here — and the fields it reaches it keys: every row
// with a get changes the digest, and no row without one does.
func TestEveryFieldHasARow(t *testing.T) {
	def, err := decodeMC(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeMC(allNonDefault(t, mcTable))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range leavesAtDefault("", reflect.ValueOf(got), reflect.ValueOf(def)) {
		if path == "Schedule.MaxPaths" {
			continue // the engine's own bound on pending branches; not a wire knob
		}
		t.Errorf("mcRequest.%s is untouched by a query that sets every parameter: the field has no row", path)
	}
	soakDef, err := decodeSoak(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	soakGot, err := decodeSoak(allNonDefault(t, soakTable))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range leavesAtDefault("", reflect.ValueOf(soakGot), reflect.ValueOf(soakDef)) {
		t.Errorf("soakRequest.%s is untouched by a query that sets every parameter: the field has no row", path)
	}

	// Rare knobs need rare=true, and a split factor needs levels, so every
	// row but rare itself is moved on top of that base.
	for _, p := range mcTable.rows {
		base := url.Values{"rare": {"true"}, "rare_split_levels": {"1,2"}}
		if p.name == "rare" {
			base = url.Values{}
		}
		moved := url.Values{p.name: {nonDefault[p.name]}}
		for k, v := range base {
			if k != p.name {
				moved[k] = v
			}
		}
		a, err := decodeMC(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := decodeMC(moved)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if changed := mcDigest(a) != mcDigest(b); changed != (p.get != nil) {
			t.Errorf("%s: digest changed = %v, row keyed = %v", p.name, changed, p.get != nil)
		}
	}
	for _, p := range soakTable.rows {
		moved, err := decodeSoak(url.Values{p.name: {nonDefault[p.name]}})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if changed := canonical(soakTable, &moved) != canonical(soakTable, &soakDef); changed != (p.get != nil) {
			t.Errorf("soak %s: canonical form changed = %v, row keyed = %v", p.name, changed, p.get != nil)
		}
	}
}

// renderParamReference is the README's availd parameter reference: one
// line per row — name, the endpoints whose table holds it, the range
// phrase its constructor built from the bounds its 400 texts use, and the
// default as the canonical encoding spells it.
func renderParamReference(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("| parameter | endpoints | range | default |\n|---|---|---|---|\n")
	line := func(name, endpoints, rng, def string) {
		if def == "" {
			def = "—"
		} else {
			def = "`" + def + "`"
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s |\n", name, endpoints, rng, def)
	}
	mcDef := mcDefaults()
	for i, p := range mcTable.rows {
		endpoints := "analytic, mc"
		if i >= len(modelTable.rows) {
			endpoints = "mc"
		}
		def := ""
		if p.get != nil {
			def = p.get(&mcDef)
		}
		line(p.name, endpoints, p.rng, def)
	}
	soakDef, err := decodeSoak(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range soakTable.rows {
		def := ""
		if p.get != nil {
			def = p.get(&soakDef)
		}
		line(p.name, "soak", p.rng, def)
	}
	return sb.String()
}

// TestREADMEParamReference: the block between the availd-params markers in
// README.md is what the tables render — the wire contract is written down
// once, and the prose cannot drift from the decoder.
func TestREADMEParamReference(t *testing.T) {
	const begin, end = "<!-- availd-params:begin -->\n", "<!-- availd-params:end -->"
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md lacks the %s … %s markers", strings.TrimSpace(begin), end)
	}
	if want := renderParamReference(t); block != want {
		t.Errorf("README.md parameter reference is stale; replace the block between the markers with:\n%s", want)
	}
}
