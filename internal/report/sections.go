package report

import (
	"fmt"
	"io"

	"dpbp/internal/results"
)

// RenderSections writes a sweep's named sections to w in the given
// format (empty means text). This is the document shape cmd/dpbp has
// always emitted:
//
//   - text: sections in order, each followed by a blank line;
//   - json: a single document — the bare result when exactly one
//     section ran, else a map keyed by section name plus an "order"
//     array preserving output order;
//   - csv: sections in order, each introduced by a "# key" comment line
//     when more than one ran.
func RenderSections(w io.Writer, format string, sections []results.Section) error {
	switch format {
	case "", FormatText:
		for _, s := range sections {
			if err := Text(w, s.Val); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	case FormatJSON:
		if len(sections) == 1 {
			return JSON(w, sections[0].Val)
		}
		doc := make(map[string]any, len(sections)+1)
		order := make([]string, len(sections))
		for i, s := range sections {
			doc[s.Key] = s.Val
			order[i] = s.Key
		}
		doc["order"] = order
		return JSON(w, doc)
	case FormatCSV:
		for i, s := range sections {
			if len(sections) > 1 {
				if i > 0 {
					fmt.Fprintln(w)
				}
				fmt.Fprintf(w, "# %s\n", s.Key)
			}
			if err := CSV(w, s.Val); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("report: unknown format %q (have %v)", format, Formats())
}
