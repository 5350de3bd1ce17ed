package modelspec

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// quickstartSpec reads the quickstart document: a two-replica web group,
// a database and a payment service behind a Landing and a Checkout function.
func quickstartSpec(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestEvaluateQuickstartSpec(t *testing.T) {
	rep, err := Evaluate([]byte(quickstartSpec(t)))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// Matches examples/quickstart exactly.
	webAvail := 1 - 0.01*0.01
	if math.Abs(rep.Services["Web"]-webAvail) > 1e-12 {
		t.Errorf("A(Web) = %v, want %v", rep.Services["Web"], webAvail)
	}
	wantUser := 0.7*webAvail + 0.3*webAvail*0.995*0.98
	if math.Abs(rep.UserAvailability-wantUser) > 1e-12 {
		t.Errorf("A(user) = %v, want %v", rep.UserAvailability, wantUser)
	}
}

// TestEvaluateQuickstartFile evaluates testdata/quickstart.json and checks
// the nine-digit figures a report prints for it.
func TestEvaluateQuickstartFile(t *testing.T) {
	rep, err := Evaluate([]byte(quickstartSpec(t)))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	for _, c := range []struct {
		what string
		got  float64
		want string
	}{
		{"A(Web)", rep.Services["Web"], "0.999900000"},
		{"A(Checkout)", rep.Functions["Checkout"], "0.975002490"},
		{"A(Landing)", rep.Functions["Landing"], "0.999900000"},
		{"A(user)", rep.UserAvailability, "0.992430747"},
	} {
		if got := fmt.Sprintf("%.9f", c.got); got != c.want {
			t.Errorf("%s = %s, want %s", c.what, got, c.want)
		}
	}
}

func TestProfileSpec(t *testing.T) {
	spec := `{
	  "services": [{"name": "WS", "availability": 0.9}],
	  "functions": [{
	    "name": "Home",
	    "steps": [{"name": "s", "services": ["WS"]}],
	    "transitions": [{"from": "Begin", "to": "s"}, {"from": "s", "to": "End"}]
	  }],
	  "profile": {"transitions": [
	    {"from": "Start", "to": "Home"},
	    {"from": "Home", "to": "Exit", "probability": 0.8},
	    {"from": "Home", "to": "Home", "probability": 0.2}
	  ]}
	}`
	rep, err := Evaluate([]byte(spec))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(rep.UserAvailability-0.9) > 1e-12 {
		t.Errorf("A(user) = %v, want 0.9", rep.UserAvailability)
	}
}

func TestKofNGroup(t *testing.T) {
	spec := `{
	  "services": [{"name": "Quorum", "group": {"count": 3, "availability": 0.9, "required": 2}}],
	  "functions": [{
	    "name": "F",
	    "steps": [{"name": "s", "services": ["Quorum"]}],
	    "transitions": [{"from": "Begin", "to": "s"}, {"from": "s", "to": "End"}]
	  }],
	  "scenarios": [{"name": "only", "functions": ["F"], "probability": 1}]
	}`
	rep, err := Evaluate([]byte(spec))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	want := 0.972 // 2-of-3 at 0.9
	if math.Abs(rep.UserAvailability-want) > 1e-12 {
		t.Errorf("A = %v, want %v", rep.UserAvailability, want)
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"bad json":             `{not json`,
		"no services":          `{"functions":[{"name":"f","steps":[{"name":"s"}],"transitions":[{"from":"Begin","to":"s"}]}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
		"no functions":         `{"services":[{"name":"s","availability":1}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
		"both user levels":     `{"services":[{"name":"s","availability":1}],"functions":[{"name":"f","steps":[{"name":"st"}],"transitions":[{"from":"Begin","to":"st"}]}],"scenarios":[{"name":"x","functions":["f"],"probability":1}],"profile":{"transitions":[]}}`,
		"neither user level":   `{"services":[{"name":"s","availability":1}],"functions":[{"name":"f","steps":[{"name":"st"}],"transitions":[{"from":"Begin","to":"st"}]}]}`,
		"service both kinds":   `{"services":[{"name":"s","availability":1,"group":{"count":2,"availability":0.9}}],"functions":[{"name":"f","steps":[{"name":"st"}],"transitions":[{"from":"Begin","to":"st"}]}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
		"service neither kind": `{"services":[{"name":"s"}],"functions":[{"name":"f","steps":[{"name":"st"}],"transitions":[{"from":"Begin","to":"st"}]}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
		"bad group count":      `{"services":[{"name":"s","group":{"count":0,"availability":0.9}}],"functions":[{"name":"f","steps":[{"name":"st"}],"transitions":[{"from":"Begin","to":"st"}]}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
		"required > count":     `{"services":[{"name":"s","group":{"count":2,"availability":0.9,"required":3}}],"functions":[{"name":"f","steps":[{"name":"st"}],"transitions":[{"from":"Begin","to":"st"}]}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
		"unnamed service":      `{"services":[{"availability":1}],"functions":[{"name":"f","steps":[{"name":"st"}],"transitions":[{"from":"Begin","to":"st"}]}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
		"function no steps":    `{"services":[{"name":"s","availability":1}],"functions":[{"name":"f"}],"scenarios":[{"name":"x","functions":["f"],"probability":1}]}`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
}

func TestBuildRejectsSemanticErrors(t *testing.T) {
	// References an undeclared service: parse succeeds, build must fail.
	spec := `{
	  "services": [{"name": "WS", "availability": 0.9}],
	  "functions": [{
	    "name": "F",
	    "steps": [{"name": "s", "services": ["Ghost"]}],
	    "transitions": [{"from": "Begin", "to": "s"}, {"from": "s", "to": "End"}]
	  }],
	  "scenarios": [{"name": "only", "functions": ["F"], "probability": 1}]
	}`
	parsed, err := Parse([]byte(spec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := parsed.Build(); err == nil {
		t.Error("undeclared service accepted at build time")
	}
	// Scenario probabilities not summing to one.
	bad := strings.Replace(quickstartSpec(t), `"probability": 0.3`, `"probability": 0.1`, 1)
	parsed, err = Parse([]byte(bad))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := parsed.Build(); err == nil {
		t.Error("non-normalized scenarios accepted")
	}
}
