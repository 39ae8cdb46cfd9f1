package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/eval"
)

// The command functions print to stdout; these tests only assert they
// succeed on valid inputs and fail cleanly on invalid ones. The numeric
// content they print is covered by the library test suites.

func TestCmdStats(t *testing.T) {
	if err := cmdStats(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats(context.Background(), []string{"-coverage"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdEvalGap(t *testing.T) {
	if err := cmdEval(context.Background(), []string{"-gap"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdAgent(t *testing.T) {
	if err := cmdAgent(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdResolution(t *testing.T) {
	if err := cmdResolution(context.Background(), []string{"-model", "GPT4o", "-category", "Digital"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdResolution(context.Background(), []string{"-category", "NoSuchCategory"}); err == nil {
		t.Error("bad category accepted")
	}
	if err := cmdResolution(context.Background(), []string{"-model", "NoSuchModel"}); err == nil {
		t.Error("bad model accepted")
	}
}

func TestCmdExportAndRender(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	if err := cmdExport(context.Background(), []string{"-o", jsonPath}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(jsonPath); err != nil || fi.Size() == 0 {
		t.Fatalf("export produced %v, %v", fi, err)
	}
	renderDir := filepath.Join(dir, "renders")
	if err := cmdRender(context.Background(), []string{"-dir", renderDir, "-q", "d01"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(renderDir, "d01.png")); err != nil {
		t.Fatalf("render missing: %v", err)
	}
	// Downsampled render.
	if err := cmdRender(context.Background(), []string{"-dir", renderDir, "-q", "d01", "-factor", "16"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdRenderMatchesServedImage checks that `chipvqa render` writes
// the same PNG bytes the daemon's image endpoint serves.
func TestCmdRenderMatchesServedImage(t *testing.T) {
	dir := t.TempDir()
	if err := cmdRender(context.Background(), []string{"-dir", dir, "-q", "d01", "-factor", "8"}); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, "d01.png"))
	if err != nil {
		t.Fatal(err)
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := suite.NewServer(chipvqa.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/questions/d01/image.png?factor=8", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("image.png = %d (%s)", rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(written, rec.Body.Bytes()) {
		t.Errorf("render wrote %d bytes, the endpoint served %d different bytes", len(written), rec.Body.Len())
	}
}

// TestCmdRenderRejectsBadInput: an unknown question is a runtime
// failure and a factor the image endpoint rejects is a usage error;
// neither writes a file.
func TestCmdRenderRejectsBadInput(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "renders")
	if err := cmdRender(context.Background(), []string{"-dir", dir, "-q", "nope"}); err == nil || exitCode(err) != 1 {
		t.Errorf("render -q nope = %v, want a runtime error", err)
	}
	for _, f := range []string{"0", "3", "64", "-8"} {
		if err := cmdRender(context.Background(), []string{"-dir", dir, "-q", "d01", "-factor", f}); err == nil || exitCode(err) != 2 {
			t.Errorf("render -factor %s = %v, want a usage error", f, err)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected renders created %s (stat err %v)", dir, err)
	}
}

// TestCmdExtendedRejectsBadDownsample: a factor the image endpoint
// rejects is a usage error, raised before any question is built.
func TestCmdExtendedRejectsBadDownsample(t *testing.T) {
	for _, f := range []string{"0", "3", "-5"} {
		if err := cmdExtended(context.Background(), []string{"-n", "1", "-eval", "-downsample", f}); err == nil || exitCode(err) != 2 {
			t.Errorf("extended -downsample %s = %v, want a usage error", f, err)
		}
	}
	if err := cmdExtended(context.Background(), []string{"-n", "1", "-eval", "-downsample", "16"}); err != nil {
		t.Errorf("extended -downsample 16 = %v, want success", err)
	}
}

func TestCmdAsk(t *testing.T) {
	if err := cmdAsk(context.Background(), []string{"-model", "GPT4o", "-q", "m03"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAsk(context.Background(), []string{"-q", "d09", "-agent"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAsk(context.Background(), []string{"-q", "a01", "-challenge"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAsk(context.Background(), []string{"-q", "nope"}); err == nil {
		t.Error("unknown question accepted")
	}
}

func TestCmdExtended(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ext.json")
	if err := cmdExtended(context.Background(), []string{"-seed", "cli-test", "-n", "3", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("extended export missing: %v", err)
	}
}

// TestCmdExtendedPackedStream drives the scale path end to end through
// the CLI: pack a fold with -check, then evaluate it from the pack both
// shard-at-a-time (-stream) and fully materialised.
func TestCmdExtendedPackedStream(t *testing.T) {
	pack := filepath.Join(t.TempDir(), "fold.cvqb")
	if err := cmdPack(context.Background(), []string{"-seed", "cli-test", "-n", "2", "-o", pack, "-check"}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-packed", pack, "-eval", "-stream", "-shard", "4"},
		{"-packed", pack, "-eval"},
	} {
		if err := cmdExtended(context.Background(), args); err != nil {
			t.Fatalf("extended %v: %v", args, err)
		}
	}
}

// TestCmdExtendedPackedRejectsN checks that -n beside -packed is a
// usage error naming both flags, with nothing on stdout, whether or
// not the run streams and whatever -n says: the pack fixes the fold.
func TestCmdExtendedPackedRejectsN(t *testing.T) {
	pack := filepath.Join(t.TempDir(), "fold.cvqb")
	if err := cmdPack(context.Background(), []string{"-seed", "cli-test", "-n", "1", "-o", pack}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-packed", pack, "-n", "0", "-eval"},
		{"-packed", pack, "-n", "3", "-eval"},
		{"-packed", pack, "-n", "10"},
		{"-packed", pack, "-n", "0", "-eval", "-stream"},
		{"-packed", pack, "-n", "3", "-eval", "-stream", "-shard", "4"},
	} {
		out, err := captureStdout(t, func() error { return cmdExtended(context.Background(), args) })
		if exitCode(err) != 2 || len(out) != 0 {
			t.Errorf("extended %v: exit %d (%v), %d bytes on stdout; want a usage error and empty stdout", args, exitCode(err), err, len(out))
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "-packed") || !strings.Contains(msg, "-n") {
			t.Errorf("extended %v: error %q does not name -packed and -n", args, msg)
		}
	}
}

func TestCmdCompare(t *testing.T) {
	if err := cmdCompare(context.Background(), []string{"-a", "GPT4o", "-b", "kosmos-2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompare(context.Background(), []string{"-a", "ghost"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestCmdFineTune(t *testing.T) {
	if err := cmdFineTune(context.Background(), []string{"-model", "LLaVA-7b"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFineTune(context.Background(), []string{"-model", "ghost"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestCmdChallenge(t *testing.T) {
	if err := cmdChallenge(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestCmdEvalInterrupted simulates a SIGINT that fired before any work
// ran: the command must surface context.Canceled (so main exits 1)
// while still printing the table for whatever prefix completed.
func TestCmdEvalInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cmdEval(ctx, nil); err != context.Canceled {
		t.Fatalf("cmdEval on dead ctx = %v, want context.Canceled", err)
	}
	if err := cmdChallenge(ctx, nil); err != context.Canceled {
		t.Fatalf("cmdChallenge on dead ctx = %v, want context.Canceled", err)
	}
	// items refuses to analyse a truncated grid — error, no output.
	if err := cmdItems(ctx, []string{"-k", "3"}); err != context.Canceled {
		t.Fatalf("cmdItems on dead ctx = %v, want context.Canceled", err)
	}
}

// TestCmdRenderInterrupted pins the ctxflow fix: render honours
// cancellation at question boundaries, so a dead context stops the run
// before any PNG is written instead of plowing through all 142 files.
func TestCmdRenderInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := filepath.Join(t.TempDir(), "renders")
	if err := cmdRender(ctx, []string{"-dir", dir}); err != context.Canceled {
		t.Fatalf("cmdRender on dead ctx = %v, want context.Canceled", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cancelled render still wrote %d files", len(entries))
	}
}

// TestCmdInterruptedFileCommands covers the remaining cancellation
// seams added with the ctxflow analyzer: export must not create the
// output file, pack must stop at a shard boundary, compare and
// finetune must surface the context error before their sweeps.
func TestCmdInterruptedFileCommands(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "bench.json")
	if err := cmdExport(ctx, []string{"-o", jsonPath}); err != context.Canceled {
		t.Fatalf("cmdExport on dead ctx = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
		t.Fatalf("cancelled export left %s behind (stat err %v)", jsonPath, err)
	}

	packPath := filepath.Join(dir, "x.cvqb")
	if err := cmdPack(ctx, []string{"-o", packPath, "-n", "2"}); err != context.Canceled {
		t.Fatalf("cmdPack on dead ctx = %v, want context.Canceled", err)
	}

	if err := cmdCompare(ctx, nil); err != context.Canceled {
		t.Fatalf("cmdCompare on dead ctx = %v, want context.Canceled", err)
	}
	if err := cmdFineTune(ctx, nil); err != context.Canceled {
		t.Fatalf("cmdFineTune on dead ctx = %v, want context.Canceled", err)
	}
}

// TestUsageWriter pins the help contract: `chipvqa help` writes usage to
// the writer it is handed (stdout, exit 0) rather than stderr.
func TestUsageWriter(t *testing.T) {
	var buf strings.Builder
	usage(&buf)
	out := buf.String()
	for _, want := range []string{"usage: chipvqa", "eval", "extended", "-workers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("usage output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdItems(t *testing.T) {
	if err := cmdItems(context.Background(), []string{"-k", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdItems(context.Background(), []string{"-challenge", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdItems(context.Background(), []string{"-json"}); err != nil {
		t.Fatal(err)
	}
}

// TestItemsJSONByteStable: the chipvqa-items/1 document is byte-identical
// across worker counts, sorted by question ID, and never serialises a
// solver list as null.
func TestItemsJSONByteStable(t *testing.T) {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	var models []chipvqa.Model
	for _, name := range suite.ModelNames() {
		m, err := suite.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	var docs [][]byte
	for _, workers := range []int{1, 8} {
		r := eval.Runner{Workers: workers}
		reports, err := r.EvaluateAllContext(context.Background(), models, suite.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		items, err := eval.ItemAnalysis(reports)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeItemsJSON(&buf, "standard", len(models), items); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("items JSON differs between workers=1 and workers=8")
	}
	var doc itemsDocument
	if err := json.Unmarshal(docs[0], &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "chipvqa-items/1" {
		t.Fatalf("schema %q", doc.Schema)
	}
	if doc.Models != len(models) || len(doc.Items) != suite.Benchmark.Len() {
		t.Fatalf("models %d items %d, want %d and %d", doc.Models, len(doc.Items), len(models), suite.Benchmark.Len())
	}
	ids := make([]string, len(doc.Items))
	for i, it := range doc.Items {
		ids[i] = it.QuestionID
		if it.CorrectModels == nil {
			t.Fatalf("item %s: correct_models decoded as nil (serialised null?)", it.QuestionID)
		}
		if !sort.StringsAreSorted(it.CorrectModels) {
			t.Fatalf("item %s: solvers %v not sorted", it.QuestionID, it.CorrectModels)
		}
	}
	if !sort.StringsAreSorted(ids) {
		t.Fatal("items not sorted by question_id")
	}
	if bytes.Contains(docs[0], []byte("null")) {
		t.Fatal("document contains a JSON null")
	}
}

func TestCmdAdaptive(t *testing.T) {
	if err := cmdAdaptive(context.Background(), []string{"-seed", "cli-test", "-n", "4", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	// A cancelled run reports the prefix and returns the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cmdAdaptive(ctx, []string{"-seed", "cli-test", "-n", "4"}); err == nil {
		t.Error("cancelled adaptive run returned nil error")
	}
}
