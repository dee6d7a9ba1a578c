// Command experiments regenerates the paper's evaluation tables and
// figures on the simulated clusters. Its output is a pure function of the
// seed: EXPERIMENTS.md's tables are generated from `-exp all -format md`
// at the default seed, committed as testdata/all.md.
//
//	experiments -exp all          # everything (a few seconds)
//	experiments -exp fig8         # one experiment
//	experiments -exp fig8,table6 -format md
//
// Available experiments: fig5 fig6 fig7 fig8 fig9 fig10 table6 pred
// sharing dynamic recovery sched ablations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cannikin/internal/experiments"
	"cannikin/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

var order = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table6", "pred", "sharing", "dynamic", "recovery", "sched", "ablations"}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "all", "experiment id or \"all\": "+strings.Join(order, " "))
		seed   = fs.Uint64("seed", 1, "random seed (at least 1)")
		format = fs.String("format", "text", `output format: "text" or "md"`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == 0 {
		return errors.New("-seed 0: seeds start at 1")
	}
	if *format != "text" && *format != "md" {
		return fmt.Errorf("unknown format %q", *format)
	}
	opt := experiments.Options{Seed: *seed}
	out := renderer{w: w, md: *format == "md"}

	ids := order
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		if err := runOne(id, opt, out); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// renderer prints sections, tables, and figures in the chosen format.
type renderer struct {
	w  io.Writer
	md bool
}

func (r renderer) section(title string) {
	if r.md {
		fmt.Fprintf(r.w, "\n## %s\n\n", title)
		return
	}
	fmt.Fprintf(r.w, "\n==== %s ====\n\n", title)
}

func (r renderer) table(t *trace.Table) error {
	if r.md {
		return t.FprintMarkdown(r.w)
	}
	return t.Fprint(r.w)
}

func (r renderer) figs(figs ...*trace.Figure) error {
	for _, f := range figs {
		var err error
		if r.md {
			err = f.FprintMarkdown(r.w)
		} else {
			err = f.Fprint(r.w)
			fmt.Fprintln(r.w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func runOne(id string, opt experiments.Options, out renderer) error {
	w := out.w
	section := out.section
	printFigs := out.figs
	switch id {
	case "fig5":
		section("Figure 5: batch sizes during CIFAR-10 training")
		fig, err := experiments.Fig5(opt)
		if err != nil {
			return err
		}
		return printFigs(fig)
	case "fig6":
		section("Figure 6: Cannikin vs AdaptDL convergence quality")
		figs, err := experiments.Fig6(opt)
		if err != nil {
			return err
		}
		return printFigs(figs...)
	case "fig7":
		section("Figure 7: convergence processes on cluster B")
		figs, err := experiments.Fig7(opt)
		if err != nil {
			return err
		}
		return printFigs(figs...)
	case "fig8":
		section("Figure 8: normalized convergence time (Cannikin = 1)")
		tab, err := experiments.Fig8(opt)
		if err != nil {
			return err
		}
		return out.table(tab)
	case "fig9":
		section("Figure 9: approach to OptPerf with fixed B=128")
		fig, err := experiments.Fig9(opt)
		if err != nil {
			return err
		}
		return printFigs(fig)
	case "fig10":
		section("Figure 10: batch processing time vs total batch size")
		figs, err := experiments.Fig10(opt)
		if err != nil {
			return err
		}
		return printFigs(figs...)
	case "table6":
		section("Table 6: scheduling overhead of Cannikin")
		tab, err := experiments.Table6(opt)
		if err != nil {
			return err
		}
		return out.table(tab)
	case "pred":
		section("Section 5.3: OptPerf prediction error (IVW vs plain averaging)")
		tab, err := experiments.PredictionError(opt)
		if err != nil {
			return err
		}
		return out.table(tab)
	case "sharing":
		section("Section 6: sharing-induced heterogeneity (cluster C)")
		tab, err := experiments.Sharing(opt)
		if err != nil {
			return err
		}
		return out.table(tab)
	case "dynamic":
		section("Extension: sudden resource change mid-training")
		fig, eventEpoch, err := experiments.Dynamic(opt)
		if err != nil {
			return err
		}
		if err := printFigs(fig); err != nil {
			return err
		}
		fmt.Fprintf(w, "(resource event at epoch %d)\n", eventEpoch)
		return nil
	case "recovery":
		section("Extension: recovery from dynamic heterogeneity (chaos engine)")
		tab, _, eventEpoch, err := experiments.DynamicRecovery(opt)
		if err != nil {
			return err
		}
		if err := out.table(tab); err != nil {
			return err
		}
		fmt.Fprintf(w, "(compute-share event at epoch %d; reference = OptPerf re-solved on the perturbed cluster)\n", eventEpoch)
		return nil
	case "sched":
		section("Extension: heterogeneity-aware job scheduling")
		tab, err := experiments.Scheduler(opt)
		if err != nil {
			return err
		}
		return out.table(tab)
	case "ablations":
		section("Ablation: GNS estimator")
		t1, err := experiments.AblationGNS(opt)
		if err != nil {
			return err
		}
		if err := out.table(t1); err != nil {
			return err
		}
		section("Ablation: warm-started overlap-state search")
		t2, err := experiments.AblationWarmStart(opt)
		if err != nil {
			return err
		}
		if err := out.table(t2); err != nil {
			return err
		}
		section("Ablation: overlap-aware vs equal-compute allocation")
		t3, err := experiments.AblationOverlap(opt)
		if err != nil {
			return err
		}
		if err := out.table(t3); err != nil {
			return err
		}
		section("Ablation: network bandwidth sensitivity")
		fig, err := experiments.AblationBandwidth(opt)
		if err != nil {
			return err
		}
		return printFigs(fig)
	default:
		return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(order, " "))
	}
}
