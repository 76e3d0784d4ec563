// Package depmodel defines the multi-level configuration dependency
// taxonomy of the HotStorage '22 paper "Understanding Configuration
// Dependencies of File Systems" (Table 4), together with the two
// encodings of an extraction. File is the JSON document the paper's
// static analyzer emits (§4.1: "The extracted dependencies are stored
// in JSON files which describe both the parameters and the associated
// constraints"). A Set's binary encoding (MarshalBinary) is the
// compact form internal/depstore persists and a warm start decodes.
//
// The taxonomy has three major categories:
//
//   - Self Dependency (SD): an individual parameter must satisfy its own
//     constraint (data type, value range).
//   - Cross-Parameter Dependency (CPD): parameters of the same component
//     must satisfy a relative constraint (control, value).
//   - Cross-Component Dependency (CCD): a parameter or the behaviour of
//     one component depends on a parameter of another component
//     (control, value, behavioral).
package depmodel

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Category is a major dependency category from Table 4.
type Category uint8

// The three major categories of multi-level configuration dependencies.
const (
	// SD is Self Dependency: P must satisfy its own constraint.
	SD Category = iota + 1
	// CPD is Cross-Parameter Dependency: P1 and P2 of the same
	// component must satisfy a relative constraint.
	CPD
	// CCD is Cross-Component Dependency: P1 (or the behaviour) of C1
	// depends on P2 of C2.
	CCD
)

// String returns the paper's abbreviation for the category.
func (c Category) String() string {
	switch c {
	case SD:
		return "SD"
	case CPD:
		return "CPD"
	case CCD:
		return "CCD"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Valid reports whether c is one of the three defined categories.
func (c Category) Valid() bool { return c >= SD && c <= CCD }

// MarshalText implements encoding.TextMarshaler.
func (c Category) MarshalText() ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("depmodel: invalid category %d", uint8(c))
	}
	return []byte(c.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *Category) UnmarshalText(b []byte) error {
	switch string(b) {
	case "SD":
		*c = SD
	case "CPD":
		*c = CPD
	case "CCD":
		*c = CCD
	default:
		return fmt.Errorf("depmodel: unknown category %q", b)
	}
	return nil
}

// Kind is a sub-category of dependency (second column of Table 4).
type Kind uint8

// The seven sub-categories of Table 4. Five are observed in the paper's
// dataset; SDDataType..CCDBehavioral cover all seven for completeness,
// matching the paper which includes the two unseen "Value" kinds from
// the literature.
const (
	// SDDataType: parameter P must be of a specific data type.
	SDDataType Kind = iota + 1
	// SDValueRange: P must be within a specific value range.
	SDValueRange
	// CPDControl: P1 of C1 can be enabled iff P2 of C1 is
	// enabled/disabled.
	CPDControl
	// CPDValue: P1's value depends on P2's value within one component.
	CPDValue
	// CCDControl: P1 of C1 can be enabled iff P2 of C2 is
	// enabled/disabled.
	CCDControl
	// CCDValue: P1's value depends on P2 from another component.
	CCDValue
	// CCDBehavioral: component C1's behaviour depends on P2 of C2.
	CCDBehavioral
)

var kindNames = map[Kind]string{
	SDDataType:    "sd-data-type",
	SDValueRange:  "sd-value-range",
	CPDControl:    "cpd-control",
	CPDValue:      "cpd-value",
	CCDControl:    "ccd-control",
	CCDValue:      "ccd-value",
	CCDBehavioral: "ccd-behavioral",
}

var kindFromName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String returns a stable lowercase identifier for the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the seven defined sub-categories.
func (k Kind) Valid() bool { return k >= SDDataType && k <= CCDBehavioral }

// Category returns the major category the sub-category belongs to.
func (k Kind) Category() Category {
	switch k {
	case SDDataType, SDValueRange:
		return SD
	case CPDControl, CPDValue:
		return CPD
	case CCDControl, CCDValue, CCDBehavioral:
		return CCD
	default:
		return 0
	}
}

// MarshalText implements encoding.TextMarshaler.
func (k Kind) MarshalText() ([]byte, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("depmodel: invalid kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(b []byte) error {
	kk, ok := kindFromName[string(b)]
	if !ok {
		return fmt.Errorf("depmodel: unknown kind %q", b)
	}
	*k = kk
	return nil
}

// AllKinds returns the seven sub-categories in Table 4 order.
func AllKinds() []Kind {
	return []Kind{
		SDDataType, SDValueRange,
		CPDControl, CPDValue,
		CCDControl, CCDValue, CCDBehavioral,
	}
}

// ParamRef identifies a configuration parameter of a specific component
// of the FS ecosystem, e.g. {Component: "mke2fs", Param: "blocksize"}.
type ParamRef struct {
	// Component is the ecosystem component owning the parameter
	// (mke2fs, mount, ext4, e4defrag, resize2fs, e2fsck).
	Component string `json:"component"`
	// Param is the parameter name as exposed by the component
	// (e.g. "blocksize", "sparse_super2", "size").
	Param string `json:"param"`
}

// String formats the reference as component.param.
func (p ParamRef) String() string { return p.Component + "." + p.Param }

// Less orders references lexicographically by component, then parameter.
func (p ParamRef) Less(q ParamRef) bool {
	if p.Component != q.Component {
		return p.Component < q.Component
	}
	return p.Param < q.Param
}

// Constraint describes the concrete requirement attached to a
// dependency. Exactly the fields relevant to the Kind are set.
type Constraint struct {
	// DataType is the required type for SDDataType (e.g. "int",
	// "string", "bool", "size").
	DataType string `json:"data_type,omitempty"`
	// Min and Max bound the value for SDValueRange. Nil means
	// unbounded on that side.
	Min *int64 `json:"min,omitempty"`
	Max *int64 `json:"max,omitempty"`
	// Enum lists admissible values for enumerated parameters.
	Enum []string `json:"enum,omitempty"`
	// Relation is the relative constraint for CPD/CCD kinds, one of
	// "requires", "conflicts", "le", "lt", "ge", "gt", "eq",
	// "behavioral".
	Relation string `json:"relation,omitempty"`
	// Expr is a human-readable rendering of the constraint, e.g.
	// "1024 <= blocksize <= 65536" or
	// "meta_bg conflicts resize_inode".
	Expr string `json:"expr,omitempty"`
}

// Dependency is one extracted multi-level configuration dependency.
// It is the unit stored in the analyzer's JSON output.
type Dependency struct {
	// Kind is the Table 4 sub-category.
	Kind Kind `json:"kind"`
	// Source is the dependent parameter (P1 in Table 4). For
	// CCDBehavioral, Source.Param may be empty: the whole component's
	// behaviour depends on Target.
	Source ParamRef `json:"source"`
	// Target is the parameter depended upon (P2). Unset for SD kinds.
	Target ParamRef `json:"target,omitempty"`
	// Constraint is the concrete requirement.
	Constraint Constraint `json:"constraint"`
	// Via names the shared metadata fields that bridge Source and
	// Target for cross-component dependencies (§4.1's key
	// observation: all components access the FS metadata structures).
	Via []string `json:"via,omitempty"`
	// Evidence lists source positions ("file:line") of the taint-trace
	// instructions that support the dependency.
	Evidence []string `json:"evidence,omitempty"`
}

// Key returns a canonical identity for deduplication across scenarios:
// two extractions of the same dependency in different scenarios compare
// equal. Evidence and Via do not contribute to identity.
func (d Dependency) Key() string {
	// Key is called once per Set.Add — including every duplicate the
	// derivation re-discovers — so it is built in exactly one
	// allocation: sized up front, ParamRefs written inline.
	kind := d.Kind.String()
	hasTarget := d.Target != (ParamRef{})
	n := len(kind) + 1 + len(d.Source.Component) + 1 + len(d.Source.Param)
	if hasTarget {
		n += 1 + len(d.Target.Component) + 1 + len(d.Target.Param)
	}
	if d.Constraint.Relation != "" {
		n += 1 + len(d.Constraint.Relation)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(kind)
	b.WriteByte('|')
	b.WriteString(d.Source.Component)
	b.WriteByte('.')
	b.WriteString(d.Source.Param)
	if hasTarget {
		b.WriteByte('|')
		b.WriteString(d.Target.Component)
		b.WriteByte('.')
		b.WriteString(d.Target.Param)
	}
	if d.Constraint.Relation != "" {
		b.WriteByte('|')
		b.WriteString(d.Constraint.Relation)
	}
	return b.String()
}

// Validate checks structural invariants of the dependency record.
func (d Dependency) Validate() error {
	if !d.Kind.Valid() {
		return fmt.Errorf("depmodel: dependency has invalid kind %d", uint8(d.Kind))
	}
	if d.Source.Component == "" {
		return fmt.Errorf("depmodel: dependency %s has empty source component", d.Kind)
	}
	switch d.Kind.Category() {
	case SD:
		if d.Source.Param == "" {
			return fmt.Errorf("depmodel: SD dependency has empty source param")
		}
		if d.Target != (ParamRef{}) {
			return fmt.Errorf("depmodel: SD dependency %s must not have a target", d.Source)
		}
	case CPD:
		if d.Source.Param == "" || d.Target.Param == "" {
			return fmt.Errorf("depmodel: CPD dependency must name both parameters")
		}
		if d.Source.Component != d.Target.Component {
			return fmt.Errorf("depmodel: CPD dependency %s -> %s crosses components",
				d.Source, d.Target)
		}
	case CCD:
		if d.Target.Component == "" || d.Target.Param == "" {
			return fmt.Errorf("depmodel: CCD dependency must have a target parameter")
		}
		if d.Source.Component == d.Target.Component {
			return fmt.Errorf("depmodel: CCD dependency %s -> %s stays within one component",
				d.Source, d.Target)
		}
		if d.Kind != CCDBehavioral && d.Source.Param == "" {
			return fmt.Errorf("depmodel: %s dependency must name the source parameter", d.Kind)
		}
	}
	return nil
}

// Set is an order-preserving, deduplicating collection of dependencies.
type Set struct {
	deps []Dependency
	seen map[string]int
}

// NewSet returns an empty dependency set.
func NewSet() *Set {
	return &Set{seen: make(map[string]int)}
}

// Add inserts d unless an identical dependency (by Key) is already
// present; when a duplicate arrives its evidence is merged. It reports
// whether d was newly inserted.
func (s *Set) Add(d Dependency) bool {
	k := d.Key()
	if i, ok := s.seen[k]; ok {
		s.deps[i].Evidence = mergeStrings(s.deps[i].Evidence, d.Evidence)
		s.deps[i].Via = mergeStrings(s.deps[i].Via, d.Via)
		return false
	}
	s.seen[k] = len(s.deps)
	s.deps = append(s.deps, d)
	return true
}

// AddAll inserts every dependency of ds, returning how many were new.
func (s *Set) AddAll(ds []Dependency) int {
	n := 0
	for _, d := range ds {
		if s.Add(d) {
			n++
		}
	}
	return n
}

// Contains reports whether a dependency with the same identity exists.
func (s *Set) Contains(d Dependency) bool {
	_, ok := s.seen[d.Key()]
	return ok
}

// ContainsKey reports whether a dependency with the given Key exists.
func (s *Set) ContainsKey(key string) bool {
	_, ok := s.seen[key]
	return ok
}

// Len returns the number of unique dependencies.
func (s *Set) Len() int { return len(s.deps) }

// Deps returns the dependencies in insertion order. The returned slice
// is a copy and may be modified freely.
func (s *Set) Deps() []Dependency {
	out := make([]Dependency, len(s.deps))
	copy(out, s.deps)
	return out
}

// CountByCategory tallies unique dependencies per major category.
func (s *Set) CountByCategory() map[Category]int {
	m := make(map[Category]int, 3)
	for _, d := range s.deps {
		m[d.Kind.Category()]++
	}
	return m
}

// CountByKind tallies unique dependencies per sub-category.
func (s *Set) CountByKind() map[Kind]int {
	m := make(map[Kind]int, 7)
	for _, d := range s.deps {
		m[d.Kind]++
	}
	return m
}

// Sorted returns the dependencies ordered by kind, source, then target —
// a stable order for reports and golden tests.
func (s *Set) Sorted() []Dependency {
	out := s.Deps()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Source != b.Source {
			return a.Source.Less(b.Source)
		}
		return a.Target.Less(b.Target)
	})
	return out
}

// File is the on-disk JSON document the analyzer writes (§4.1).
type File struct {
	// Ecosystem names the analyzed FS ecosystem, e.g. "ext4".
	Ecosystem string `json:"ecosystem"`
	// Scenario is the usage scenario the extraction ran under,
	// e.g. "mke2fs-mount-ext4-umount-resize2fs".
	Scenario string `json:"scenario"`
	// Dependencies holds the extracted records.
	Dependencies []Dependency `json:"dependencies"`
}

// Encode renders the file as indented JSON.
func (f *File) Encode() ([]byte, error) {
	for i, d := range f.Dependencies {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("depmodel: dependency %d: %w", i, err)
		}
	}
	return json.MarshalIndent(f, "", "  ")
}

// DecodeFile parses and validates an analyzer JSON document.
func DecodeFile(b []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("depmodel: decoding dependency file: %w", err)
	}
	for i, d := range f.Dependencies {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("depmodel: dependency %d: %w", i, err)
		}
	}
	return &f, nil
}

// I64 returns a pointer to v; a convenience for Constraint bounds.
func I64(v int64) *int64 { return &v }

func mergeStrings(dst, src []string) []string {
	if len(src) == 0 {
		return dst
	}
	have := make(map[string]bool, len(dst))
	for _, s := range dst {
		have[s] = true
	}
	for _, s := range src {
		if !have[s] {
			dst = append(dst, s)
			have[s] = true
		}
	}
	return dst
}
