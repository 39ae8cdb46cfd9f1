// Command chipvqa-lint runs the repo's determinism, buffer-lifecycle,
// concurrency and reachability analyzers (internal/lint) over every
// package in the module and prints file:line:col: [analyzer]
// diagnostics, exiting non-zero on findings.
//
// It is part of the tier-1 verify gate:
//
//	go run ./cmd/chipvqa-lint ./...
//
// Usage:
//
//	chipvqa-lint [-only name[,name...]] [-json] [./...]
//
// The only accepted package pattern is the whole module (`./...` or no
// argument); the analyzers are invariant checks, not spot tools, and
// several of them reason about cross-package contracts. -only restricts
// the run to a comma-separated subset of analyzers; -json emits the
// diagnostics as one versioned JSON document on stdout (schema
// "chipvqa-lint/1", root-relative slash paths, sorted — suitable as a
// CI artifact). Suppress a single finding with an in-source directive:
//
//	//lint:ignore <analyzer> <reason>
//
// The unreachable analyzer reports functions and methods that no root
// reaches. Roots are func main and func init of every main package
// (cmd/, examples/ and the nested benchmark/ module), package-level
// variable initializers and the exported API of the root package,
// including every exported method reachable from it through aliases,
// signatures and exported fields. A function that only a test or
// benchmark calls is kept with
// `//lint:ignore unreachable <the test or benchmark that calls it>` as
// the last line of its doc comment; that also keeps what it calls.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable core of the driver.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("chipvqa-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "write diagnostics as a versioned JSON document on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	for _, pat := range fs.Args() {
		if pat != "./..." && pat != "." {
			fmt.Fprintf(stderr, "chipvqa-lint: unsupported pattern %q (the analyzers run module-wide; use ./...)\n", pat)
			return 2
		}
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "chipvqa-lint:", err)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "chipvqa-lint:", err)
		return 2
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(stderr, "chipvqa-lint:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "chipvqa-lint:", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers)
	if *asJSON {
		if err := lint.WriteJSON(stdout, loader.Root(), loader.ModulePath(), analyzers, diags); err != nil {
			fmt.Fprintln(stderr, "chipvqa-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "chipvqa-lint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only flag against the registry.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, analyzerNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

// analyzerNames renders the registry for error messages.
func analyzerNames(all []*lint.Analyzer) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}
