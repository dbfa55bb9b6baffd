package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docBudgets caps, in bytes, the documents every change appends to. A
// measurement narrative outgrowing its budget moves into the commit that made
// it, and the document keeps one row naming that commit.
var docBudgets = map[string]int64{
	"EXPERIMENTS.md": 50_000,
	"README.md":      30_000,
	"CHANGES.md":     30_000,
}

func TestDocBudgets(t *testing.T) {
	for name, budget := range docBudgets {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > budget {
			t.Errorf("%s is %d bytes, over its budget of %d", name, fi.Size(), budget)
		}
	}
}

var (
	// A heading of the experiments record, quoted or in italics after its
	// file name; headings start with a capital letter.
	experimentsRef = regexp.MustCompile(`EXPERIMENTS\.md[\s,(]*(?:"([A-Z][^"]*)"|\*([A-Z][^*]*)\*)`)
	// One or more section numbers of the design document, as in §3.2 or §5/§7.
	designRef  = regexp.MustCompile(`DESIGN(?:\.md)?\s*((?:§\d+(?:\.\d+)?[/, ]*)+)`)
	sectionNum = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	// A line break inside a paragraph or a // comment.
	lineBreak = regexp.MustCompile(`\s*\n\s*(?://\s*)?`)
)

// TestDocPointersResolve: every reference to a heading of the experiments
// record by its quoted (or italic) title, and every section number of the
// design document, in a Markdown or Go file outside benchmark/ names a heading
// that exists, so a pointer cannot outlive the section it points at.
func TestDocPointersResolve(t *testing.T) {
	experiments := headings(t, "EXPERIMENTS.md")
	design := headings(t, "DESIGN.md")
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || p == "benchmark" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(p); ext != ".md" && ext != ".go" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		text := lineBreak.ReplaceAllString(string(b), " ")
		for _, m := range experimentsRef.FindAllStringSubmatch(text, -1) {
			title := m[1] + m[2]
			if !hasHeading(experiments, func(h string) bool { return strings.HasPrefix(h, title) }) {
				t.Errorf("%s: EXPERIMENTS.md has no heading %q", p, title)
			}
		}
		for _, m := range designRef.FindAllStringSubmatch(text, -1) {
			for _, n := range sectionNum.FindAllStringSubmatch(m[1], -1) {
				if !hasHeading(design, func(h string) bool { return strings.HasPrefix(h, n[1]+".") || strings.HasPrefix(h, n[1]+" ") }) {
					t.Errorf("%s: DESIGN.md has no section §%s", p, n[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// headings returns the text of every Markdown heading of the file.
func headings(t *testing.T, name string) []string {
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "#") {
			out = append(out, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return out
}

func hasHeading(hs []string, match func(string) bool) bool {
	for _, h := range hs {
		if match(h) {
			return true
		}
	}
	return false
}
