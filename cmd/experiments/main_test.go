package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.md and EXPERIMENTS.md's generated blocks from this run")

const (
	goldenPath = "testdata/all.md"
	docPath    = "../../EXPERIMENTS.md"

	blockOpen  = "<!-- experiments:"
	blockClose = "<!-- /experiments -->"
)

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "fig9"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 9", "cannikin", "lb-bsp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "fig5,sched"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "job scheduling") {
		t.Fatalf("multi-experiment output incomplete:\n%s", out[:min(400, len(out))])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "fig99"}, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nope"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunRejectsSeedZero: seed 0 is not a seed of its own. Options maps it
// to the default, so it would print seed 1's results under another name.
func TestRunRejectsSeedZero(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "sched", "-seed", "0"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Fatalf("-seed 0: err = %v, want an error naming -seed", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("-seed 0 printed output:\n%s", sb.String())
	}
}

// TestGoldenAndDocBlocks runs `-exp all -format md` at the default seed,
// one id at a time in order, and checks the output byte for byte against
// testdata/all.md, and each generated block of EXPERIMENTS.md against its
// id's part of the same run. `go test -update` rewrites both instead, so a
// change that moves a number shows the move in its diff.
func TestGoldenAndDocBlocks(t *testing.T) {
	outs := map[string]string{}
	var all strings.Builder
	for _, id := range order {
		var sb strings.Builder
		if err := run([]string{"-exp", id, "-format", "md"}, &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		outs[id] = sb.String()
		all.WriteString(sb.String())
	}
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	filled, stale, err := fillBlocks(string(doc), outs)
	if err != nil {
		t.Fatalf("%s: %v", docPath, err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(docPath, []byte(filled), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := all.String(), string(golden); got != want {
		got, want := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range max(len(got), len(want)) {
			g, w := lineAt(got, i), lineAt(want, i)
			if g != w {
				t.Errorf("%s line %d:\n got  %q\n want %q\n(go test ./cmd/experiments -update rewrites it when the change is meant)", goldenPath, i+1, g, w)
				break
			}
		}
	}
	for _, id := range stale {
		t.Errorf("%s: the %s block is not this run's output (go test ./cmd/experiments -update rewrites it when the change is meant)", docPath, id)
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}

// fillBlocks returns doc with the body of each generated block, the lines
// between an experiments:<id> marker and the closing marker, set to
// docBlock of that id's output, and the ids of the blocks that differed.
func fillBlocks(doc string, outs map[string]string) (string, []string, error) {
	var b strings.Builder
	var stale []string
	for {
		i := strings.Index(doc, blockOpen)
		if i < 0 {
			b.WriteString(doc)
			return b.String(), stale, nil
		}
		b.WriteString(doc[:i])
		head, rest, ok := strings.Cut(doc[i:], " -->\n")
		if !ok {
			return "", nil, fmt.Errorf("marker %q is not a line of its own", head[:min(40, len(head))])
		}
		id := strings.TrimPrefix(head, blockOpen)
		out, ok := outs[id]
		if !ok {
			return "", nil, fmt.Errorf("block for unknown experiment %q", id)
		}
		body, tail, ok := strings.Cut(rest, blockClose)
		if !ok {
			return "", nil, fmt.Errorf("the %s block has no closing marker", id)
		}
		want := "\n" + docBlock(out) + "\n\n"
		if body != want {
			stale = append(stale, id)
		}
		b.WriteString(head + " -->\n" + want + blockClose)
		doc = tail
	}
}

// docBlock is how an experiment's output reads inside EXPERIMENTS.md: its
// section heading dropped, because the document words its own, and every
// other heading one level deeper, so that it nests under that one.
func docBlock(out string) string {
	_, body, _ := strings.Cut(strings.TrimLeft(out, "\n"), "\n")
	lines := strings.Split(strings.Trim(body, "\n"), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "#") {
			lines[i] = "#" + l
		}
	}
	return strings.Join(lines, "\n")
}
