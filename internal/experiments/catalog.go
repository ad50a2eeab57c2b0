package experiments

import (
	"fmt"
	"strings"
)

// Experiment is one entry of the catalog: a table or figure the CLI
// can regenerate by name.
type Experiment struct {
	// Name selects the experiment (tdpipe -exp Name).
	Name string
	// NeedsEnv reports whether Run reads the shared Env; Run is handed
	// nil otherwise, so callers can build the Env only when needed.
	NeedsEnv bool
	// Extra leaves the experiment out of "all".
	Extra bool
	// Run runs the experiment and renders its table(s).
	Run func(*Env) (string, error)
}

// Catalog returns every experiment in run order: the paper's tables
// and figures (§4), the offloading motivation (§2.2.2), the fleet
// studies, and the design-choice sweeps.
func Catalog() []Experiment {
	ablation := func(title string) func([]AblationRow) string {
		return func(rows []AblationRow) string { return FormatAblation(title, rows) }
	}
	return []Experiment{
		{Name: "table1", Run: func(*Env) (string, error) { return FormatTable1(), nil }},
		{Name: "table2", Run: func(*Env) (string, error) { return FormatTable2(), nil }},
		{Name: "fig2", NeedsEnv: true, Run: render(Fig2, FormatFig2)},
		{Name: "fig6", NeedsEnv: true, Run: render(Fig6, FormatFig6)},
		{Name: "fig11", NeedsEnv: true, Run: render(Fig11, FormatFig11)},
		{Name: "fig12", NeedsEnv: true, Run: render(Fig12, FormatFig12)},
		{Name: "fig13", NeedsEnv: true, Run: render(Fig13, ablation("Figure 13: prefill-to-decode switching ablation"))},
		{Name: "fig14", NeedsEnv: true, Run: render(Fig14, FormatFig14)},
		{Name: "fig15", NeedsEnv: true, Run: render(Fig15, ablation("Figure 15: inter-batch work stealing ablation"))},
		{Name: "fig16", NeedsEnv: true, Run: render(Fig16, ablation("Figure 16: decode-to-prefill switching ablation"))},
		{Name: "offload", NeedsEnv: true, Run: render(Offload, FormatOffload)},
		{Name: "fleet", NeedsEnv: true, Run: render(Fleet, FormatFleet)},
		{Name: "online", NeedsEnv: true, Run: render(Online, FormatOnline)},
		{Name: "prefix", NeedsEnv: true, Run: render(Prefix, FormatPrefix)},
		{Name: "disagg", NeedsEnv: true, Run: render(Disagg, FormatDisagg)},
		{Name: "faults", NeedsEnv: true, Run: render(Faults, FormatFaults)},
		{Name: "chaos", NeedsEnv: true, Run: render(Chaos, FormatChaos)},
		{Name: "autoscale", NeedsEnv: true, Run: render(Autoscale, FormatAutoscale)},
		{Name: "sweep", NeedsEnv: true, Extra: true, Run: func(e *Env) (string, error) {
			pb, err := SweepPrefillBatch(e)
			if err != nil {
				return "", err
			}
			ct, err := SweepChunkTokens(e)
			if err != nil {
				return "", err
			}
			return FormatSweep("Sweep: TD-Pipe prefill batch size (4xA100 + 70B)", pb) + "\n" +
				FormatSweep("Sweep: PP+HB chunk token budget (4xA100 + 70B)", ct), nil
		}},
	}
}

// render chains an experiment's run and its formatter.
func render[T any](run func(*Env) (T, error), format func(T) string) func(*Env) (string, error) {
	return func(e *Env) (string, error) {
		r, err := run(e)
		if err != nil {
			return "", err
		}
		return format(r), nil
	}
}

// Select resolves a comma-separated list of experiment names against
// the catalog, in the order given; "all" stands for every entry not
// marked Extra. An unknown name fails before anything runs, with an
// error that lists the valid names.
func Select(list string) ([]Experiment, error) {
	cat := Catalog()
	var out []Experiment
	for _, name := range strings.Split(list, ",") {
		n := len(out)
		for _, x := range cat {
			if name == x.Name || (name == "all" && !x.Extra) {
				out = append(out, x)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(Names(), ","))
		}
	}
	return out, nil
}

// Names lists the names Select accepts: the catalog in order, then
// "all".
func Names() []string {
	var names []string
	for _, x := range Catalog() {
		names = append(names, x.Name)
	}
	return append(names, "all")
}
