// Command onecodec fails when non-test code outside internal/ds and
// examples imports encoding/gob (see lint.GobImports): control-plane
// messages, the controller op-log and its persisted images all use
// internal/codec. CI runs it from the module root:
//
//	go run ./internal/lint/onecodec .
package main

import (
	"fmt"
	"os"

	"jiffy/internal/lint"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	violations, err := lint.GobImports(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "onecodec: %s: %v\n", root, err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}
