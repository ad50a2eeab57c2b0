package experiments

import (
	"strings"
	"testing"
)

func selectedNames(t *testing.T, list string) string {
	t.Helper()
	exps, err := Select(list)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, x := range exps {
		names = append(names, x.Name)
	}
	return strings.Join(names, ",")
}

func TestSelect(t *testing.T) {
	const all = "table1,table2,fig2,fig6,fig11,fig12,fig13,fig14,fig15,fig16,offload,fleet,online,prefix,disagg,faults,chaos,autoscale"
	if got := selectedNames(t, "all"); got != all {
		t.Errorf("all = %s, want %s", got, all)
	}
	if got := selectedNames(t, "sweep,table1,sweep"); got != "sweep,table1,sweep" {
		t.Errorf("explicit list = %s, want the order given", got)
	}
	for _, bad := range []string{"", "fig1", "fig2,", "All"} {
		if _, err := Select(bad); err == nil {
			t.Errorf("Select(%q) accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, x := range Catalog() {
		if seen[x.Name] || x.Name == "all" {
			t.Errorf("catalog name %q is duplicated or reserved", x.Name)
		}
		seen[x.Name] = true
		if x.Run == nil {
			t.Errorf("%s has no Run", x.Name)
		}
	}
}

// TestCatalogEnvFree runs the entries that declare they need no Env on
// a nil one.
func TestCatalogEnvFree(t *testing.T) {
	for _, x := range Catalog() {
		if x.NeedsEnv {
			continue
		}
		if out, err := x.Run(nil); err != nil || out == "" {
			t.Errorf("%s on a nil Env: %q, %v", x.Name, out, err)
		}
	}
}
