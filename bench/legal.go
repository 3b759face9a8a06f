package main

import (
	"errors"
	"fmt"

	"repro/internal/placement"
)

// checkLegal is the benchmark's legality oracle. It judges a macro placement
// from the outside, whatever placer produced it: every macro placed, no two
// macros overlapping, and every macro inside the die. Each illegal placement
// counts as a failed operation.
func checkLegal(pl *placement.Placement) error {
	if pl == nil {
		return errors.New("no placement")
	}
	if !pl.AllMacrosPlaced() {
		return errors.New("macros left unplaced")
	}
	if a := pl.MacroOverlapArea(); a != 0 {
		return fmt.Errorf("macros overlap by %d DBU²", a)
	}
	return pl.MacrosInsideDie()
}
