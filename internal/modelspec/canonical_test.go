package modelspec

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// specDoc is a minimal valid document with defaults spelled implicitly.
const specDoc = `{
  "name": "store",
  "services": [
    {"name": "Web", "group": {"count": 2, "availability": 0.99}},
    {"name": "DB", "availability": 0.995}
  ],
  "functions": [
    {
      "name": "Landing",
      "steps": [{"name": "serve", "services": ["Web", "DB"]}],
      "transitions": [
        {"from": "Begin", "to": "serve"},
        {"from": "serve", "to": "End"}
      ]
    }
  ],
  "scenarios": [
    {"name": "visit", "functions": ["Landing"], "probability": 1}
  ]
}`

// specDocReordered is the same document with JSON keys in a different order
// and the implicit defaults (probability 1, required 1) spelled out.
const specDocReordered = `{
  "functions": [
    {
      "transitions": [
        {"probability": 1, "to": "serve", "from": "Begin"},
        {"to": "End", "from": "serve"}
      ],
      "steps": [{"services": ["Web", "DB"], "name": "serve"}],
      "name": "Landing"
    }
  ],
  "scenarios": [
    {"probability": 1, "functions": ["Landing"], "name": "visit"}
  ],
  "services": [
    {"group": {"required": 1, "availability": 0.99, "count": 2}, "name": "Web"},
    {"availability": 0.995, "name": "DB"}
  ],
  "name": "store"
}`

func TestCanonicalKeyStability(t *testing.T) {
	a, err := Parse([]byte(specDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b, err := Parse([]byte(specDocReordered))
	if err != nil {
		t.Fatalf("Parse reordered: %v", err)
	}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatalf("Canonical reordered: %v", err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ:\n%s\n%s", ca, cb)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	spec, err := Parse([]byte(specDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c1, err := spec.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	reparsed, err := Parse(c1)
	if err != nil {
		t.Fatalf("Parse canonical: %v", err)
	}
	c2, err := reparsed.Canonical()
	if err != nil {
		t.Fatalf("Canonical of canonical: %v", err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical form is not a fixed point:\n%s\n%s", c1, c2)
	}

	// The normalized form must evaluate identically to the original.
	r1, err := Evaluate([]byte(specDoc))
	if err != nil {
		t.Fatalf("Evaluate original: %v", err)
	}
	r2, err := Evaluate(c1)
	if err != nil {
		t.Fatalf("Evaluate canonical: %v", err)
	}
	if r1.UserAvailability != r2.UserAvailability {
		t.Fatalf("availability changed under canonicalization: %v vs %v",
			r1.UserAvailability, r2.UserAvailability)
	}
}

func TestCanonicalProfileDefaults(t *testing.T) {
	doc := `{
	  "services": [{"name": "S", "availability": 0.9}],
	  "functions": [{
	    "name": "F",
	    "steps": [{"name": "s1", "services": ["S"]}],
	    "transitions": [{"from": "Begin", "to": "s1"}, {"from": "s1", "to": "End"}]
	  }],
	  "profile": {"transitions": [
	    {"from": "Start", "to": "F"},
	    {"from": "F", "to": "Exit"}
	  ]}
	}`
	spec, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c, err := spec.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if !bytes.Contains(c, []byte(`"probability":1`)) {
		t.Fatalf("profile defaults not spelled out: %s", c)
	}
	// Canonicalization must not mutate the receiver.
	if spec.Profile.Transitions[0].Probability != 0 {
		t.Fatal("Canonical mutated the original spec")
	}
}

func TestCanonicalInvalidSpec(t *testing.T) {
	spec := &Spec{}
	if _, err := spec.Canonical(); !errors.Is(err, ErrSpec) {
		t.Fatalf("Canonical of invalid spec: got %v, want ErrSpec", err)
	}
}

// TestStructureKeySplitsCanonical is the property that lets the structure
// key, the name and the availability vector stand in for CanonicalKey: over
// perturbed documents, Canonical bytes are equal exactly when all three
// are. The perturbations reorder keys, spell out defaults and change the
// name, fixed availabilities, the replica group and the diagram, alone and
// combined.
func TestStructureKeySplitsCanonical(t *testing.T) {
	type edit struct{ old, new string }
	perturb := map[string][]edit{
		"name":          {{`"name": "store"`, `"name": "shop"`}},
		"no name":       {{`"name": "store",`, ``}},
		"fixed":         {{`"availability": 0.995`, `"availability": 0.99`}},
		"fixed 0":       {{`"availability": 0.995`, `"availability": 0`}},
		"fixed -0":      {{`"availability": 0.995`, `"availability": -0`}},
		"fixed 1":       {{`"availability": 0.995`, `"availability": 1`}},
		"fixed 1.0":     {{`"availability": 0.995`, `"availability": 1.0`}},
		"group avail":   {{`"count": 2, "availability": 0.99`, `"count": 2, "availability": 0.98`}},
		"group count":   {{`"count": 2,`, `"count": 3,`}},
		"group k":       {{`"count": 2,`, `"count": 2, "required": 2,`}},
		"group k=1":     {{`"count": 2,`, `"count": 2, "required": 1,`}},
		"to group":      {{`{"name": "DB", "availability": 0.995}`, `{"name": "DB", "group": {"count": 1, "availability": 0.995}}`}},
		"to fixed":      {{`{"name": "Web", "group": {"count": 2, "availability": 0.99}}`, `{"name": "Web", "availability": 0.99}`}},
		"step services": {{`"services": ["Web", "DB"]`, `"services": ["Web"]`}},
		"default prob":  {{`{"from": "serve", "to": "End"}`, `{"from": "serve", "to": "End", "probability": 1}`}},
		"branch": {
			{`"steps": [{"name": "serve", "services": ["Web", "DB"]}]`, `"steps": [{"name": "serve", "services": ["Web", "DB"]}, {"name": "cache", "services": ["Web"]}]`},
			{`{"from": "Begin", "to": "serve"}`, `{"from": "Begin", "to": "serve", "probability": 0.5}, {"from": "Begin", "to": "cache", "probability": 0.5}, {"from": "cache", "to": "End"}`},
		},
		"service order": {
			{`{"name": "Web", "group": {"count": 2, "availability": 0.99}},`, ``},
			{`{"name": "DB", "availability": 0.995}`, `{"name": "DB", "availability": 0.995}, {"name": "Web", "group": {"count": 2, "availability": 0.99}}`},
		},
	}
	docs := map[string]string{"base": specDoc, "reordered": specDocReordered}
	for name, edits := range perturb {
		doc := specDoc
		for _, e := range edits {
			if !strings.Contains(doc, e.old) {
				t.Fatalf("%s: %q not in the document", name, e.old)
			}
			doc = strings.Replace(doc, e.old, e.new, 1)
		}
		docs[name] = doc
	}
	// Pairs of perturbations compose: a structural change with a name or
	// availability change, and so on.
	for a, ea := range perturb {
		for b, eb := range perturb {
			doc := specDoc
			for _, e := range append(append([]edit(nil), ea...), eb...) {
				doc = strings.Replace(doc, e.old, e.new, 1)
			}
			docs[a+"+"+b] = doc
		}
	}

	type split struct {
		canonical []byte
		key, name string
		avail     []float64
	}
	splits := make(map[string]split, len(docs))
	for name, doc := range docs {
		spec, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := spec.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		key, avail, err := spec.StructureKey()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(avail) != len(spec.Services) {
			t.Fatalf("%s: %d availabilities for %d services", name, len(avail), len(spec.Services))
		}
		splits[name] = split{c, key, spec.Name, avail}
	}
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	var sameKey, sameCanonical int
	for na, a := range splits {
		for nb, b := range splits {
			canonEq := bytes.Equal(a.canonical, b.canonical)
			splitEq := a.key == b.key && a.name == b.name && sameBits(a.avail, b.avail)
			if canonEq != splitEq {
				t.Fatalf("%s vs %s: canonical equal %v, split equal %v\n%s\n%s", na, nb, canonEq, splitEq, a.canonical, b.canonical)
			}
			if a.key == b.key && na != nb {
				sameKey++
			}
			if canonEq && na != nb {
				sameCanonical++
			}
		}
	}
	// Name and fixed availabilities are not structure.
	for _, name := range []string{"name", "no name", "fixed", "fixed -0", "name+fixed 0"} {
		if splits[name].key != splits["base"].key {
			t.Errorf("%s changed the structure key", name)
		}
	}
	if sameKey <= sameCanonical || sameCanonical == 0 {
		t.Fatalf("perturbations too weak: %d pairs share a key, %d a canonical form", sameKey, sameCanonical)
	}
}

// TestStructureKeyRejectsNonFinite: a fixed availability JSON cannot carry
// fails StructureKey with the error Canonical gives for it.
func TestStructureKeyRejectsNonFinite(t *testing.T) {
	spec, err := Parse([]byte(specDoc))
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	spec.Services[1].Availability = &nan
	_, canonErr := spec.Canonical()
	_, _, keyErr := spec.StructureKey()
	if !errors.Is(keyErr, ErrSpec) || canonErr == nil || keyErr.Error() != canonErr.Error() {
		t.Fatalf("StructureKey error %v, Canonical error %v", keyErr, canonErr)
	}
}

// TestBuildStructureIgnoresFixedAvailabilities checks that one structure
// serves every document with its key: evaluated with a document's own
// availabilities it matches Build of that document bit for bit, and an out
// of range fixed availability cannot fail it.
func TestBuildStructureIgnoresFixedAvailabilities(t *testing.T) {
	for _, a := range []string{"0.995", "0", "1", "1.5"} {
		spec, err := Parse([]byte(strings.Replace(specDoc, "0.995", a, 1)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.BuildStructure()
		if err != nil {
			t.Fatalf("availability %s: BuildStructure: %v", a, err)
		}
		_, avail, err := spec.StructureKey()
		if err != nil {
			t.Fatal(err)
		}
		if a == "1.5" {
			if _, err := spec.Build(); err == nil {
				t.Fatal("Build accepted availability 1.5")
			}
			continue
		}
		got, err := m.EvaluateWith(map[string]float64{"DB": avail[1]})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.UserAvailability) != math.Float64bits(want.UserAvailability) {
			t.Fatalf("availability %s: structure %v, Build %v", a, got.UserAvailability, want.UserAvailability)
		}
	}
}
