package engine

import (
	"fmt"
	"strings"
)

// Explain renders a plan tree as an indented text outline, one operator
// per line, for the EXPLAIN facility of cmd/irdb and for debugging
// strategy compilations.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), n.Label())
	for _, c := range n.Children() {
		explain(b, c, depth+1)
	}
}

// ExplainChange renders the optimizer's before/after view: the naive plan
// as compiled, then the optimized plan actually executed. When the
// optimizer left the plan alone, the single tree is shown with a note
// saying so.
func ExplainChange(before, after Node) string {
	b, a := Explain(before), Explain(after)
	if b == a {
		return "plan (optimizer made no changes):\n" + b
	}
	return "plan before optimization:\n" + b +
		"plan after optimization:\n" + a
}

// CountNodes reports the number of operators in a plan, a rough complexity
// measure used by strategy statistics ("a basic search engine would easily
// require tens of queries with hundreds of lines of code", section 2.4).
func CountNodes(n Node) int {
	total := 1
	for _, c := range n.Children() {
		total += CountNodes(c)
	}
	return total
}
