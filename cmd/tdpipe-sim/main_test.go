package main

import (
	"bufio"
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// readmeFlagTable parses the "Flag reference: cmd/tdpipe-sim" table out
// of the repo README and returns flag name -> default cell (backticks
// stripped, empty cell = empty default).
func readmeFlagTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatalf("open README: %v", err)
	}
	defer f.Close()

	rows := map[string]string{}
	inSection := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inSection = strings.Contains(line, "Flag reference")
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed flag table row: %q", line)
		}
		clean := func(s string) string {
			return strings.Trim(strings.TrimSpace(s), "`")
		}
		name := strings.TrimPrefix(clean(cells[1]), "-")
		if _, dup := rows[name]; dup {
			t.Errorf("README flag table lists -%s twice", name)
		}
		rows[name] = clean(cells[2])
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read README: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("found no flag table rows in README.md (section 'Flag reference')")
	}
	return rows
}

// TestReadmeFlagTableMatchesRegistration keeps the README flag table
// honest: every registered tdpipe-sim flag must appear in the table
// with the registered default, and every table row must name a real
// flag. Registration is enumerated with flag.VisitAll on a fresh set,
// so the test sees exactly what realMain registers.
func TestReadmeFlagTableMatchesRegistration(t *testing.T) {
	rows := readmeFlagTable(t)

	var o options
	fs := flag.NewFlagSet("tdpipe-sim", flag.ContinueOnError)
	registerFlags(fs, &o)

	seen := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		seen[f.Name] = true
		def, ok := rows[f.Name]
		if !ok {
			t.Errorf("flag -%s is registered but missing from the README flag table", f.Name)
			return
		}
		if def != f.DefValue {
			t.Errorf("flag -%s: README default %q != registered default %q", f.Name, def, f.DefValue)
		}
	})
	for name := range rows {
		if !seen[name] {
			t.Errorf("README flag table row -%s names a flag that is not registered", name)
		}
	}
}

// errFlag marks a row whose arguments the flag set itself refuses.
var errFlag = errors.New("flag error")

// TestFleetFlagErrors runs flag combinations through the real mode
// checks: a fleet size below one and an explicit -policy without fleet
// mode must each fail with their named error instead of silently
// running the single-engine path, and so must a flag that tunes a
// feature the invocation leaves off; -workers is not a flag (the
// fleet sizes its own worker pool); valid fleet invocations, fault
// injection together with a policy flag among them, must run.
func TestFleetFlagErrors(t *testing.T) {
	tiny := []string{"-requests", "8", "-pool", "64", "-oracle"}
	cases := []struct {
		name string
		args []string
		want error
	}{
		{"zero replicas", []string{"-replicas", "0"}, errReplicas},
		{"negative replicas", []string{"-replicas", "-3"}, errReplicas},
		{"policy without fleet", []string{"-replicas", "1", "-policy", "nosuch"}, errPolicyNoFleet},
		{"valid policy without fleet", []string{"-policy", "least-work"}, errPolicyNoFleet},
		{"fleet with policy", []string{"-replicas", "2", "-policy", "least-work"}, nil},
		{"offline fleet with workers", []string{"-replicas", "4", "-workers", "2"}, errFlag},
		{"disagg with workers", []string{"-disagg", "-workers", "2"}, errFlag},
		{"disagg with auto workers", []string{"-disagg", "-workers", "-1"}, errFlag},
		{"disagg with one worker", []string{"-disagg", "-workers", "1"}, errFlag},
		{"burst without admission", []string{"-replicas", "2", "-arrivals", "poisson", "-rate", "5", "-admit-burst", "4"}, errBurstNoAdmission},
		{"burst with admission", []string{"-replicas", "2", "-arrivals", "poisson", "-rate", "5", "-admit-rate", "4", "-admit-burst", "4"}, nil},
		{"autoscale min without max", []string{"-replicas", "2", "-arrivals", "poisson", "-rate", "5", "-autoscale-min", "2"}, errScaleNoMax},
		{"autoscale interval without max", []string{"-replicas", "2", "-arrivals", "poisson", "-rate", "5", "-autoscale-interval", "2"}, errScaleNoMax},
		{"autoscale min with max", []string{"-replicas", "2", "-arrivals", "poisson", "-rate", "5", "-autoscale-max", "2", "-autoscale-min", "2"}, nil},
		{"straggler factor without stragglers", []string{"-replicas", "2", "-straggler-factor", "2"}, errFactorNoStraggler},
		{"link degrade factor without frac", []string{"-disagg", "-link-degrade-factor", "2"}, errFactorNoDegrade},
		{"prefix len without groups", []string{"-prefix-len", "64"}, errPrefixNoGroups},
		{"prefix turns without groups", []string{"-prefix-turns", "2"}, errPrefixNoGroups},
		{"prefix shape with groups", []string{"-prefix-groups", "2", "-prefix-len", "16", "-prefix-turns", "2"}, nil},
		{"domain kind without domains", []string{"-replicas", "2", "-domain-kind", "network"}, errKindNoDomains},
		{"max retries without crashes", []string{"-replicas", "2", "-max-retries", "2"}, errRecoveryNoCrashes},
		{"restart delay without crashes", []string{"-replicas", "2", "-restart-delay", "1"}, errRecoveryNoCrashes},
		{"restart delay with domain outages", []string{"-replicas", "2", "-fault-domains", "2", "-domain-mtbf", "30",
			"-fault-horizon", "20", "-domain-kind", "network", "-restart-delay", "1"}, nil},
		{"rate with instant arrivals", []string{"-rate", "5"}, errRateInstant},
		{"rate with explicit instant arrivals", []string{"-arrivals", "instant", "-rate", "5"}, errRateInstant},
		{"oracle with a baseline", []string{"-sched", "pp+sb"}, errOracleBaseline},
		{"kv link without disagg", []string{"-replicas", "2", "-kv-bw", "10"}, errDisaggOnly},
		{"link impairment without disagg", []string{"-replicas", "2", "-link-partition-frac", "0.1"}, errDisaggOnly},
		{"policy with disagg", []string{"-disagg", "-policy", "least-work"}, errFleetFlagsDisagg},
		{"admission with disagg", []string{"-disagg", "-arrivals", "poisson", "-rate", "5", "-admit-rate", "4"}, errFrontDisagg},
		{"domain mtbf without topology", []string{"-replicas", "2", "-domain-mtbf", "30", "-fault-horizon", "20"}, errDomainsNoTopology},
		{"topology without domain mtbf", []string{"-replicas", "2", "-fault-domains", "2"}, errTopologyNoDomains},
		{"faults with admission", []string{"-replicas", "2", "-arrivals", "poisson", "-rate", "5",
			"-mtbf", "30", "-fault-horizon", "20", "-admit-rate", "4"}, nil},
		{"disagg autoscale with faults", []string{"-disagg", "-arrivals", "poisson", "-rate", "5",
			"-mtbf", "30", "-fault-horizon", "20", "-autoscale-max", "2"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o options
			fs := flag.NewFlagSet("tdpipe-sim", flag.ContinueOnError)
			registerFlags(fs, &o)
			fs.SetOutput(io.Discard)
			err := fs.Parse(append(tc.args, tiny...))
			if err != nil {
				if tc.want != errFlag {
					t.Fatal(err)
				}
				return
			}
			err = run(o, fs.Visit)
			if tc.want == nil && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// runOutput runs one invocation and returns its stdout without the
// wall-clock kernel line.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("tdpipe-sim", flag.ContinueOnError)
	registerFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run(o, fs.Visit)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.HasPrefix(line, "kernel:") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// TestInactivePlanPreShards pins a closed-loop fleet whose fault flags
// draw a plan that schedules nothing: it keeps the layer-free Fleet
// label and prints the same bytes as the run without fault flags.
func TestInactivePlanPreShards(t *testing.T) {
	tiny := []string{"-replicas", "4", "-requests", "40", "-pool", "200", "-oracle"}
	plain := runOutput(t, tiny...)
	inactive := runOutput(t, append([]string{"-mtbf", "1e9", "-fault-horizon", "1"}, tiny...)...)
	if !strings.Contains(plain, "Fleet(TD-Pipe/round-robin)x4") {
		t.Fatalf("plain closed-loop fleet lost its Fleet label:\n%s", plain)
	}
	if inactive != plain {
		t.Fatalf("inactive plan changed the output:\n--- plain\n%s--- inactive plan\n%s", plain, inactive)
	}
}
