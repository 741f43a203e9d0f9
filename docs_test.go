package semcc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocPointers holds the design record's pointers to what they point
// at. Every backticked test, benchmark, fuzz target or example name in
// DESIGN.md must be a func of some _test.go file — a {A,B} group names
// each of its members, and a name ending in … or ... names every func
// it prefixes. Every "ROADMAP item N" in DESIGN.md or in a Go comment
// must name an item listed under ROADMAP.md's "## Open items".
func TestDocPointers(t *testing.T) {
	design := read(t, "DESIGN.md")
	var funcs []string
	var comments strings.Builder
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src := read(t, path)
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range funcRE.FindAllStringSubmatch(src, -1) {
				funcs = append(funcs, m[1])
			}
		}
		for _, line := range strings.Split(src, "\n") {
			if i := strings.Index(line, "//"); i >= 0 {
				comments.WriteString(path + ": " + line[i:] + "\n")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	span := regexp.MustCompile("`[^`\n]*`")
	cited := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_{},]*(?:…|\.\.\.)?)`)
	checked := 0
	for _, m := range cited.FindAllStringSubmatch(strings.Join(span.FindAllString(design, -1), " "), -1) {
		for _, name := range expand(m[1]) {
			prefix := strings.TrimSuffix(strings.TrimSuffix(name, "…"), "...")
			found := false
			for _, f := range funcs {
				if f == name || prefix != name && strings.HasPrefix(f, prefix) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("DESIGN.md cites `%s`, which no _test.go declares", name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no test name in DESIGN.md: the check checked nothing")
	}

	roadmap := read(t, "ROADMAP.md")
	open := map[string]bool{}
	if i := strings.Index(roadmap, "\n## Open items"); i >= 0 {
		section := roadmap[i+1:]
		if j := strings.Index(section, "\n## "); j >= 0 {
			section = section[:j]
		}
		for _, m := range regexp.MustCompile(`(?m)^(\d+)\. `).FindAllStringSubmatch(section, -1) {
			open[m[1]] = true
		}
	}
	if len(open) == 0 {
		t.Fatal(`ROADMAP.md lists no item under "## Open items"`)
	}
	pointer := regexp.MustCompile(`ROADMAP\s+item\s+(\d+)`)
	for _, src := range []struct{ name, text string }{{"DESIGN.md", design}, {"a Go comment", comments.String()}} {
		for _, m := range pointer.FindAllStringSubmatch(src.text, -1) {
			if !open[m[1]] {
				t.Errorf("%s points at ROADMAP item %s, which is not an open item", src.name, m[1])
			}
		}
	}
}

// expand spells out the {A,B} groups of a cited name: TestX{A,B} is
// TestXA and TestXB.
func expand(name string) []string {
	i := strings.Index(name, "{")
	j := strings.Index(name, "}")
	if i < 0 || j < i {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[i+1:j], ",") {
		out = append(out, expand(name[:i]+alt+name[j+1:])...)
	}
	return out
}

func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
