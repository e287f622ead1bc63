// repro is the single entry point for every experiment in this
// repository. An experiment is a JSON manifest: `repro run
// manifests/pr.json` executes one, `repro validate` checks it, and
// `repro replay` steps through one of its points. `repro list` and
// `repro trace` are the helpers. Run `repro help` for the full list.
package main

import (
	"os"

	"repro/internal/command"
)

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}
