package core

import (
	"cmp"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"dqemu/internal/metrics"
	"dqemu/internal/proto"
)

// Rows renders r as ordered rows, one per number the run counted: every
// integer field of r and of the structs it holds, in declaration order,
// keyed by the snake_case path of field names ("dir.reads",
// "nodes.1.engine.exec_insns"; slice elements by index). Net's per-kind
// arrays list the kinds sent, by name, and OS.ByNum the syscalls made.
// Strings and pointers (Console, San, Metrics) are not rendered. A field
// named …Ns is a time on clock ("virtual" or "wall") or on its clock tag
// ("model": charged by the cost model on both runtimes); …Bytes… is bytes.
func (r *Result) Rows(clock string) []metrics.Row { return rows("", reflect.ValueOf(*r), clock) }

// Rows renders one node's counts as its cluster's Result.Rows does, keyed
// "nodes.<id>.…": the rows a slave process reports of its own node.
func (s NodeStats) Rows(clock string) []metrics.Row {
	return rows("nodes."+strconv.Itoa(s.Node), reflect.ValueOf(s), clock)
}

// rows renders v under key as Result.Rows describes.
func rows(key string, v reflect.Value, clock string) []metrics.Row {
	var out []metrics.Row
	var walk func(key string, attrs metrics.Row, v reflect.Value)
	walk = func(key string, attrs metrics.Row, v reflect.Value) {
		switch {
		case v.CanInt() || v.CanUint():
			attrs.Key, attrs.Value = key, v.Convert(reflect.TypeOf(int64(0))).Int()
			out = append(out, attrs)
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				u := metrics.Row{}
				switch {
				case strings.HasSuffix(f.Name, "Ns"):
					u.Unit, u.Clock = "ns", cmp.Or(f.Tag.Get("clock"), clock)
				case strings.Contains(f.Name, "Bytes"):
					u.Unit = "bytes"
				}
				walk(strings.TrimPrefix(key+"."+snake(f.Name), "."), u, v.Field(i))
			}
		case v.Kind() == reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(key+"."+strconv.Itoa(i), attrs, v.Index(i))
			}
		case v.Kind() == reflect.Array: // netsim.Stats, indexed by message kind
			for i := 0; i < v.Len(); i++ {
				if !v.Index(i).IsZero() {
					walk(key+"."+proto.Kind(i).String(), attrs, v.Index(i))
				}
			}
		case v.Kind() == reflect.Map: // guestos.Stats.ByNum, syscall number -> count
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
			for _, k := range keys {
				walk(key+"."+strconv.FormatInt(k.Int(), 10), attrs, v.MapIndex(k))
			}
		}
	}
	walk(key, metrics.Row{}, v)
	return out
}

// snake turns a Go field name into a row key segment at its word and
// acronym boundaries: "ExitCode" → "exit_code", "LLSCFalse" → "llsc_false".
func snake(name string) string {
	var b strings.Builder
	for i, c := range name {
		if unicode.IsUpper(c) && i > 0 && (!unicode.IsUpper(rune(name[i-1])) ||
			i+1 < len(name) && unicode.IsLower(rune(name[i+1]))) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}
