package main

import (
	"bufio"
	"errors"
	"flag"
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

// TestFleetFlagErrors runs flag combinations through the real mode
// checks: a fleet size below one and an explicit -policy without fleet
// mode must each fail with their named error instead of silently
// running the single-engine path; a valid fleet invocation must run.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o options
			fs := flag.NewFlagSet("tdpipe-sim", flag.ContinueOnError)
			registerFlags(fs, &o)
			if err := fs.Parse(append(tc.args, tiny...)); err != nil {
				t.Fatal(err)
			}
			err := run(o, fs.Visit)
			if tc.want == nil && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
