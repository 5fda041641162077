package experiments

import (
	"fmt"
	"strings"

	"repro/internal/report"
)

// Render returns the artifact in cmd/paperrepro's plain-text format.
// The golden regression corpus (testdata/golden) locks these exact
// bytes down, so renderer changes surface as golden diffs.
func (o Output) Render() string {
	return o.render("=== %s — %s ===\n\n", (*report.Table).String, "note: %s\n")
}

// RenderMarkdown returns the artifact in cmd/paperrepro's -markdown
// format.
func (o Output) RenderMarkdown() string {
	return o.render("## %s — %s\n\n", (*report.Table).Markdown, "> %s\n")
}

// render writes the heading, each table and then each note.
func (o Output) render(heading string, table func(*report.Table) string, note string) string {
	var b strings.Builder
	fmt.Fprintf(&b, heading, o.ID, o.Title)
	for _, tb := range o.Tables {
		b.WriteString(table(tb))
		b.WriteString("\n")
	}
	for _, n := range o.Notes {
		fmt.Fprintf(&b, note, n)
	}
	return b.String()
}
