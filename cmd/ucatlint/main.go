// Command ucatlint is the project's static invariant checker. It enforces
// the properties the paper's evaluation depends on: probability comparisons
// go through epsilon helpers, every page access flows through the counted
// buffer pool, release errors are observed, experiments use seeded
// randomness, and buffer-pool pins are balanced (DESIGN.md §12).
//
// Usage:
//
//	ucatlint [-checks floatcmp,ioaccount,...] [packages]
//
// Packages are directory patterns relative to the module root ("./...",
// "./internal/uda", "./cmd/..."); the default is "./...". Exit status is 0
// when nothing was reported, 1 when something was, and 2 on usage or load
// errors.
//
// Findings that are intentional can be suppressed with a comment on the
// offending line or the line above:
//
//	//ucatlint:ignore <check> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"ucat/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ucatlint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	checksFlag := fs.String("checks", "all", "comma-separated checks to run (default: all)")
	listFlag := fs.Bool("list", false, "list available checks and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ucatlint [-checks names] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, c := range lint.AllChecks() {
			fmt.Printf("%-12s  %s\n", c.Name, c.Doc)
		}
		return 0
	}
	checks, err := lint.SelectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucatlint:", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucatlint:", err)
		return 2
	}
	root, modPath, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucatlint:", err)
		return 2
	}
	loader := lint.NewLoader(root, modPath)
	pkgs, err := loader.Load(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucatlint:", err)
		return 2
	}
	diags := lint.Run(pkgs, checks)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ucatlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
