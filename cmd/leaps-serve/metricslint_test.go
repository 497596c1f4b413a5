package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// exemplarRe matches the OpenMetrics exemplar tail after " # ".
	exemplarRe = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\} [^ ]+( [^ ]+)?$`)
)

// sample is one parsed series sample.
type sample struct {
	line   int
	name   string
	labels map[string]string
	value  float64
}

// family accumulates everything seen for one metric family.
type family struct {
	name     string
	kind     string // from # TYPE; "" when none seen
	helpSeen bool
	typeLine int
	samples  []sample
}

// lintMetrics checks a /metrics exposition, classic text or
// OpenMetrics, the way promtool's check would, scoped to the
// conventions the endpoint promises:
//
//   - every sample is preceded by a # TYPE line for its family, and
//     # HELP (when present) comes before # TYPE;
//   - metric and label names match the Prometheus naming charset;
//   - counter families end in _total;
//   - histogram families expose _bucket series with le labels that are
//     ascending, cumulative, and end in an +Inf bucket whose count
//     equals the family's _count series, plus _sum and _count;
//   - no series (name plus label set) appears twice;
//   - OpenMetrics exemplars only follow _bucket samples and parse as
//     `# {label="value",...} value [timestamp]`;
//   - an OpenMetrics `# EOF` terminator, when present, is the last
//     line (the classic text format omits it).
//
// It returns every violation, one per entry; a clean exposition
// returns none.
func lintMetrics(exposition []byte) []string {
	var problems []string
	fail := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	families := map[string]*family{}
	order := []string{}
	fam := func(name string) *family {
		if f, ok := families[name]; ok {
			return f
		}
		f := &family{name: name}
		families[name] = f
		order = append(order, name)
		return f
	}
	seen := map[string]int{} // series signature -> first line

	lineNo := 0
	eofSeen := 0
	for _, line := range strings.Split(string(exposition), "\n") {
		lineNo++
		if strings.TrimSpace(line) == "" {
			continue
		}
		if eofSeen > 0 {
			fail(lineNo, "content after the # EOF terminator (at line %d)", eofSeen)
			continue
		}
		// OpenMetrics terminator; the classic text format omits it.
		if line == "# EOF" {
			eofSeen = lineNo
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			f := fam(parts[0])
			if f.kind != "" {
				fail(lineNo, "# HELP for %s after its # TYPE", parts[0])
			}
			if len(f.samples) > 0 {
				fail(lineNo, "# HELP for %s after its samples", parts[0])
			}
			f.helpSeen = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				fail(lineNo, "malformed # TYPE line %q", line)
				continue
			}
			f := fam(parts[0])
			if f.kind != "" {
				fail(lineNo, "duplicate # TYPE for %s", parts[0])
			}
			if len(f.samples) > 0 {
				fail(lineNo, "# TYPE for %s after its samples", parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail(lineNo, "unknown metric type %q for %s", parts[1], parts[0])
			}
			f.kind = parts[1]
			f.typeLine = lineNo
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}

		s, exemplar, err := parseSample(line)
		if err != nil {
			fail(lineNo, "%v", err)
			continue
		}
		s.line = lineNo
		if !nameRe.MatchString(s.name) {
			fail(lineNo, "invalid metric name %q", s.name)
		}
		for k := range s.labels {
			if !labelRe.MatchString(k) {
				fail(lineNo, "invalid label name %q on %s", k, s.name)
			}
		}
		if exemplar != "" {
			if !strings.HasSuffix(s.name, "_bucket") {
				fail(lineNo, "exemplar on non-bucket series %s", s.name)
			}
			if !exemplarRe.MatchString(exemplar) {
				fail(lineNo, "malformed exemplar %q", exemplar)
			}
		}
		sig := s.name + "{" + labelSig(s.labels) + "}"
		if first, dup := seen[sig]; dup {
			fail(lineNo, "duplicate series %s (first at line %d)", sig, first)
		} else {
			seen[sig] = lineNo
		}
		// Histogram child series belong to the base family.
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(s.name, suf)
			if trimmed != s.name {
				if f, ok := families[trimmed]; ok && f.kind == "histogram" {
					base = trimmed
				}
				break
			}
		}
		f := fam(base)
		if f.kind == "" {
			fail(lineNo, "sample %s before any # TYPE for %s", s.name, base)
		}
		f.samples = append(f.samples, s)
	}
	for _, name := range order {
		f := families[name]
		switch f.kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				problems = append(problems, fmt.Sprintf("line %d: counter %s does not end in _total", f.typeLine, name))
			}
		case "histogram":
			problems = append(problems, checkHistogram(f)...)
		}
	}

	return problems
}

// parseSample splits one sample line into series, optional exemplar
// tail (after " # "), and value.
func parseSample(line string) (sample, string, error) {
	body, exemplar := line, ""
	if i := strings.Index(line, " # "); i >= 0 {
		body, exemplar = line[:i], line[i+3:]
	}
	s := sample{labels: map[string]string{}}
	rest := body
	if i := strings.IndexByte(body, '{'); i >= 0 {
		s.name = body[:i]
		j := strings.LastIndexByte(body, '}')
		if j < i {
			return s, "", fmt.Errorf("unbalanced braces in %q", line)
		}
		if err := parseLabels(body[i+1:j], s.labels); err != nil {
			return s, "", err
		}
		rest = strings.TrimSpace(body[j+1:])
	} else {
		fields := strings.Fields(body)
		if len(fields) < 2 {
			return s, "", fmt.Errorf("malformed sample %q", line)
		}
		s.name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, "", fmt.Errorf("malformed sample value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, "", fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	s.value = v
	return s, exemplar, nil
}

// parseLabels parses `k="v",k2="v2"` into dst.
func parseLabels(body string, dst map[string]string) error {
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return fmt.Errorf("malformed labels %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		if _, dup := dst[key]; dup {
			return fmt.Errorf("duplicate label %q", key)
		}
		dst[key] = rest[:end]
		body = rest[end+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return nil
}

// parseValue accepts Prometheus sample values, including +Inf/-Inf/NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// labelSig renders a label set deterministically for duplicate checks.
func labelSig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

// checkHistogram validates one histogram family's bucket discipline,
// per labelled child (children are distinguished by their non-le
// labels).
func checkHistogram(f *family) []string {
	var problems []string
	type child struct {
		buckets []sample // in input order
		sum     *sample
		count   *sample
	}
	children := map[string]*child{}
	get := func(labels map[string]string) *child {
		rest := map[string]string{}
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		sig := labelSig(rest)
		c, ok := children[sig]
		if !ok {
			c = &child{}
			children[sig] = c
		}
		return c
	}
	for i := range f.samples {
		s := f.samples[i]
		switch s.name {
		case f.name + "_bucket":
			get(s.labels).buckets = append(get(s.labels).buckets, s)
		case f.name + "_sum":
			get(s.labels).sum = &f.samples[i]
		case f.name + "_count":
			get(s.labels).count = &f.samples[i]
		case f.name:
			problems = append(problems, fmt.Sprintf("line %d: bare sample %s for histogram family", s.line, s.name))
		}
	}
	for sig, c := range children {
		where := f.name
		if sig != "" {
			where += "{" + sig + "}"
		}
		if len(c.buckets) == 0 {
			problems = append(problems, fmt.Sprintf("histogram %s has no _bucket series", where))
			continue
		}
		if c.sum == nil {
			problems = append(problems, fmt.Sprintf("histogram %s missing _sum", where))
		}
		if c.count == nil {
			problems = append(problems, fmt.Sprintf("histogram %s missing _count", where))
		}
		prevLe := math.Inf(-1)
		prevCount := -1.0
		lastLe := 0.0
		for _, b := range c.buckets {
			leStr, ok := b.labels["le"]
			if !ok {
				problems = append(problems, fmt.Sprintf("line %d: %s_bucket without le label", b.line, f.name))
				continue
			}
			le, err := parseValue(leStr)
			if err != nil {
				problems = append(problems, fmt.Sprintf("line %d: bad le %q", b.line, leStr))
				continue
			}
			if le <= prevLe {
				problems = append(problems, fmt.Sprintf("line %d: %s buckets not le-ascending (%g after %g)", b.line, where, le, prevLe))
			}
			if b.value < prevCount {
				problems = append(problems, fmt.Sprintf("line %d: %s buckets not cumulative (%g after %g)", b.line, where, b.value, prevCount))
			}
			prevLe, prevCount, lastLe = le, b.value, le
		}
		if !math.IsInf(lastLe, 1) {
			problems = append(problems, fmt.Sprintf("histogram %s does not end in an le=\"+Inf\" bucket", where))
		} else if c.count != nil && c.buckets[len(c.buckets)-1].value != c.count.value {
			problems = append(problems, fmt.Sprintf("histogram %s +Inf bucket (%g) != _count (%g)",
				where, c.buckets[len(c.buckets)-1].value, c.count.value))
		}
	}
	return problems
}
