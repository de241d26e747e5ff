package vhdl

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// wireEnumVal is EnumVal's wire tag (vhdl owns 32–47, see
// pdes.RegisterWireValue).
const wireEnumVal = 32

func init() {
	// An enumeration value crosses with its type's name and literals: the
	// receiver compares by name and position (EqualValue) and prints by
	// literal, and needs no type table to do either.
	pdes.RegisterWireValue(wireEnumVal, EnumVal{},
		func(e *pdes.WireEncoder, v any) {
			ev := v.(EnumVal)
			e.Varint(int64(ev.Ord))
			e.Bool(ev.Enum != nil)
			if ev.Enum != nil {
				e.String(ev.Enum.Name)
				e.Count(len(ev.Enum.Lits), ev.Enum.Lits == nil)
				for _, l := range ev.Enum.Lits {
					e.String(l)
				}
			}
		},
		func(d *pdes.WireDecoder) any {
			ev := EnumVal{Ord: d.Int()}
			if d.Bool() {
				ev.Enum = &EnumInfo{Name: d.String()}
				if n, ok := d.Count(1); ok {
					ev.Enum.Lits = make([]string, n)
				}
				for i := range ev.Enum.Lits {
					ev.Enum.Lits[i] = d.String()
				}
			}
			return ev
		})
}

// typeKind enumerates the supported VHDL type classes.
type typeKind uint8

const (
	tStd  typeKind = iota // std_logic / std_ulogic / bit
	tVec                  // std_logic_vector / bit_vector
	tBool                 // boolean
	tInt                  // integer / natural / positive (with ranges)
	tTime                 // time
	tEnum                 // user enumeration
)

// Type is an elaborated VHDL type.
type Type struct {
	Kind   typeKind
	Lo, Hi int64 // index range (tVec) or value range (tInt)
	Downto bool  // index direction (tVec)
	Enum   *EnumInfo
}

// EnumInfo describes a user enumeration type.
type EnumInfo struct {
	Name string
	Lits []string
}

// EnumVal is a value of a user enumeration type.
type EnumVal struct {
	Enum *EnumInfo
	Ord  int
}

// EqualValue implements kernel.Equaler: enumeration values compare by type
// name and position, so equality survives transfer across processes
// (pointer identity does not).
func (v EnumVal) EqualValue(other any) bool {
	o, ok := other.(EnumVal)
	return ok && o.Enum != nil && v.Enum != nil &&
		o.Enum.Name == v.Enum.Name && o.Ord == v.Ord
}

func (v EnumVal) String() string {
	if v.Ord >= 0 && v.Ord < len(v.Enum.Lits) {
		return v.Enum.Lits[v.Ord]
	}
	return fmt.Sprintf("%s#%d", v.Enum.Name, v.Ord)
}

// timeVal is a VHDL time value (femtoseconds).
type timeVal = vtime.Time

func (t *Type) String() string {
	switch t.Kind {
	case tStd:
		return "std_logic"
	case tVec:
		dir := "to"
		if t.Downto {
			dir = "downto"
		}
		return fmt.Sprintf("std_logic_vector(%d %s %d)", t.Lo, dir, t.Hi)
	case tBool:
		return "boolean"
	case tInt:
		return "integer"
	case tTime:
		return "time"
	case tEnum:
		return t.Enum.Name
	}
	return "?"
}

// Width returns the element count of a vector type.
func (t *Type) Width() int {
	if t.Kind != tVec {
		return 1
	}
	if t.Downto {
		return int(t.Lo - t.Hi + 1)
	}
	return int(t.Hi - t.Lo + 1)
}

// indexOffset maps a VHDL index to the 0-based element offset (MSB-first
// storage: offset 0 is the leftmost element).
func (t *Type) indexOffset(idx int64) (int, error) {
	if t.Kind != tVec {
		return 0, fmt.Errorf("indexing a non-array value of type %s", t)
	}
	var off int64
	if t.Downto {
		if idx > t.Lo || idx < t.Hi {
			return 0, fmt.Errorf("index %d out of range %d downto %d", idx, t.Lo, t.Hi)
		}
		off = t.Lo - idx
	} else {
		if idx < t.Lo || idx > t.Hi {
			return 0, fmt.Errorf("index %d out of range %d to %d", idx, t.Lo, t.Hi)
		}
		off = idx - t.Lo
	}
	return int(off), nil
}

// defaultValue returns the VHDL default initial value: the leftmost value
// of the type.
func (t *Type) defaultValue() kernel.Value {
	switch t.Kind {
	case tStd:
		return stdlogic.U
	case tVec:
		return stdlogic.NewVec(t.Width(), stdlogic.U)
	case tBool:
		return false
	case tInt:
		return t.Lo
	case tTime:
		return timeVal(0)
	case tEnum:
		return EnumVal{Enum: t.Enum, Ord: 0}
	}
	return nil
}

// builtinTypes are always in scope (std + ieee.std_logic_1164).
func builtinTypes() map[string]*Type {
	intT := &Type{Kind: tInt, Lo: -1 << 62, Hi: 1<<62 - 1}
	return map[string]*Type{
		"std_logic":  {Kind: tStd},
		"std_ulogic": {Kind: tStd},
		"bit":        {Kind: tStd},
		"boolean":    {Kind: tBool},
		"integer":    intT,
		"natural":    {Kind: tInt, Lo: 0, Hi: 1<<62 - 1},
		"positive":   {Kind: tInt, Lo: 1, Hi: 1<<62 - 1},
		"time":       {Kind: tTime},
	}
}

// valueString renders a kernel value as VHDL-ish text (for report messages
// and error diagnostics).
func valueString(v kernel.Value) string {
	switch val := v.(type) {
	case stdlogic.Std:
		return val.String()
	case stdlogic.Vec:
		return val.String()
	case bool:
		if val {
			return "true"
		}
		return "false"
	case int64:
		return fmt.Sprintf("%d", val)
	case timeVal:
		return val.String()
	case EnumVal:
		return val.String()
	case string:
		return val
	}
	return fmt.Sprint(v)
}
