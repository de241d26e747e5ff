package vhdl

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/nametab"
	"govhdl/internal/stdlogic"
)

// evalError aborts evaluation with a positioned error (recovered at the
// statement-execution boundary).
type evalError struct{ err *Error }

func evalPanic(pos Pos, format string, args ...any) {
	panic(evalError{&Error{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf(format, args...)}})
}

// evalCtx is a constant scope: the constants, named types and enumeration
// literals of one design-unit instance, or of a process chained to its
// instance's scope through outer. A name resolves in the innermost scope that
// declares it.
type evalCtx struct {
	consts nametab.Table[kernel.Value] // constants, generics, generate/loop vars
	types  nametab.Table[*Type]        // named types
	enums  nametab.Table[kernel.Value] // enum literal -> its EnumVal, boxed once
	outer  *evalCtx
}

func (c *evalCtx) setConst(name string, v kernel.Value) { c.consts.Set(name, v) }

func (c *evalCtx) setType(name string, t *Type) { c.types.Set(name, t) }

// declareConst declares constant name of type t with value v. A vector
// constant's type is recorded too, under "__obj_"+name, for indexing and
// attributes.
func (c *evalCtx) declareConst(name string, t *Type, v kernel.Value) {
	c.setConst(name, v)
	if t.Kind == tVec {
		c.setType("__obj_"+name, t)
	}
}

// declareEnum declares an enumeration type and its literals.
func (c *evalCtx) declareEnum(d *EnumTypeDecl) {
	info := &EnumInfo{Name: d.Name, Lits: d.Literals}
	c.setType(d.Name, &Type{Kind: tEnum, Enum: info})
	for i, lit := range d.Literals {
		c.enums.Set(lit, EnumVal{Enum: info, Ord: i})
	}
}

// constant resolves a constant, generic or generate variable, or else one
// of the boolean literals, which every scope sees.
func (c *evalCtx) constant(name string) (kernel.Value, bool) {
	for s := c; s != nil; s = s.outer {
		if v, ok := s.consts.Get(name); ok {
			return v, true
		}
	}
	switch name {
	case "true":
		return true, true
	case "false":
		return false, true
	}
	return nil, false
}

// typ resolves a named type.
func (c *evalCtx) typ(name string) (*Type, bool) {
	for s := c; s != nil; s = s.outer {
		if t, ok := s.types.Get(name); ok {
			return t, true
		}
	}
	return nil, false
}

// lookupPlain resolves a bare identifier: constants first, then enumeration
// literals.
func (c *evalCtx) lookupPlain(ident string) (kernel.Value, bool) {
	if v, ok := c.constant(ident); ok {
		return v, true
	}
	for s := c; s != nil; s = s.outer {
		if v, ok := s.enums.Get(ident); ok {
			return v, true
		}
	}
	return nil, false
}

// eval evaluates a constant expression at elaboration time. want may be nil;
// it provides the element type and width context for aggregates and string
// literals. The expression is compiled in the constant scope, where it folds
// to its value or to a closure that raises its evaluation error.
func (c *evalCtx) eval(e Expr, want *Type) kernel.Value {
	x := (&compiler{ec: c}).expr(e, want)
	if x.konst {
		return x.val
	}
	return x.fn(nil)
}

// evalInt evaluates a constant integer expression.
func (c *evalCtx) evalInt(e Expr) int64 {
	return (&compiler{ec: c}).integer(e)(nil)
}

// Static want contexts shared by every compile.
var (
	stdType  = &Type{Kind: tStd}
	boolType = &Type{Kind: tBool}
	timeType = &Type{Kind: tTime}
)

// strLit is the value of a string literal in the want context: a bit string
// where a vector or std_logic (or nothing) is wanted, text otherwise.
func strLit(s string, want *Type) kernel.Value {
	if want != nil && want.Kind != tVec && want.Kind != tStd {
		// A string in a report message context.
		return s
	}
	v, err := stdlogic.VecFromString(s)
	if err != nil {
		// Not a bit-string: treat as text.
		return s
	}
	return v
}

// unOp is a unary operator.
type unOp uint8

const (
	opNot unOp = iota
	opNeg
	opAbs
	opBadUnary
)

// unOpNamed returns the unary operator spelled name.
func unOpNamed(name string) (unOp, bool) {
	switch name {
	case "not":
		return opNot, true
	case "-":
		return opNeg, true
	case "abs":
		return opAbs, true
	}
	return opBadUnary, false
}

// unaryVal applies unary operator op (spelled name) to x.
func unaryVal(pos Pos, op unOp, name string, x kernel.Value) kernel.Value {
	switch op {
	case opNot:
		switch v := x.(type) {
		case stdlogic.Std:
			return stdlogic.Not(v)
		case stdlogic.Vec:
			return stdlogic.NotVec(v)
		case bool:
			return !v
		}
	case opNeg:
		switch v := x.(type) {
		case int64:
			return -v
		case timeVal:
			evalPanic(pos, "negative time")
		}
	case opAbs:
		if v, ok := x.(int64); ok {
			if v < 0 {
				return -v
			}
			return v
		}
	}
	evalPanic(pos, "operator %q not defined for %s", name, valueString(x))
	return nil
}

// binOp is a binary operator.
type binOp uint8

const (
	opAnd binOp = iota
	opOr
	opXor
	opNand
	opNor
	opXnor
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opCat
	opMul
	opDiv
	opMod
	opRem
	opPow
	opSll
	opSrl
)

var binOpNames = [...]string{
	opAnd: "and", opOr: "or", opXor: "xor", opNand: "nand", opNor: "nor", opXnor: "xnor",
	opEq: "=", opNe: "/=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">=",
	opAdd: "+", opSub: "-", opCat: "&", opMul: "*", opDiv: "/", opMod: "mod", opRem: "rem",
	opPow: "**", opSll: "sll", opSrl: "srl",
}

// binOpNamed returns the binary operator spelled name.
func binOpNamed(name string) (binOp, bool) {
	for op, n := range binOpNames {
		if n == name {
			return binOp(op), true
		}
	}
	return 0, false
}

func (op binOp) String() string { return binOpNames[op] }

// binaryVal applies binary operator op to the operand values.
func binaryVal(pos Pos, op binOp, l, r kernel.Value) kernel.Value {
	switch op {
	case opAnd, opOr, opXor, opNand, opNor, opXnor:
		return logic(pos, op, l, r)
	case opEq:
		return valuesEqual(pos, l, r)
	case opNe:
		return !valuesEqual(pos, l, r)
	case opLt, opLe, opGt, opGe:
		return compare(pos, op, l, r)
	case opAdd, opSub:
		return addSub(pos, op, l, r)
	case opCat:
		return concat(pos, l, r)
	case opMul, opDiv, opMod, opRem, opPow:
		return arith(pos, op, l, r)
	default:
		return shift(pos, op, l, r)
	}
}

// stdOps maps each logical operator to its std_logic function.
var stdOps = [...]func(a, d stdlogic.Std) stdlogic.Std{
	opAnd: stdlogic.And, opOr: stdlogic.Or, opXor: stdlogic.Xor,
	opNand: stdlogic.Nand, opNor: stdlogic.Nor, opXnor: stdlogic.Xnor,
}

func logic(pos Pos, op binOp, l, r kernel.Value) kernel.Value {
	switch lv := l.(type) {
	case stdlogic.Std:
		rv, ok := r.(stdlogic.Std)
		if !ok {
			evalPanic(pos, "type mismatch in %q", op)
		}
		return stdOps[op](lv, rv)
	case stdlogic.Vec:
		rv, ok := r.(stdlogic.Vec)
		if !ok || len(rv) != len(lv) {
			evalPanic(pos, "vector length mismatch in %q", op)
		}
		f := stdOps[op]
		out := make(stdlogic.Vec, len(lv))
		for i := range out {
			out[i] = f(lv[i], rv[i])
		}
		return out
	case bool:
		rv, ok := r.(bool)
		if !ok {
			evalPanic(pos, "type mismatch in %q", op)
		}
		switch op {
		case opAnd:
			return lv && rv
		case opOr:
			return lv || rv
		case opXor:
			return lv != rv
		case opNand:
			return !(lv && rv)
		case opNor:
			return !(lv || rv)
		default:
			return lv == rv
		}
	}
	evalPanic(pos, "operator %q not defined for %s", op, valueString(l))
	return nil
}

func valuesEqual(pos Pos, l, r kernel.Value) bool {
	switch lv := l.(type) {
	case stdlogic.Vec:
		rv, ok := r.(stdlogic.Vec)
		if !ok {
			evalPanic(pos, "comparing vector with %s", valueString(r))
		}
		return lv.Equal(rv)
	case EnumVal:
		rv, ok := r.(EnumVal)
		if !ok || rv.Enum.Name != lv.Enum.Name {
			evalPanic(pos, "comparing values of different enumeration types")
		}
		return lv.Ord == rv.Ord
	default:
		if !sameScalarKind(l, r) {
			evalPanic(pos, "comparing %s with %s", valueString(l), valueString(r))
		}
		return l == r
	}
}

func sameScalarKind(l, r kernel.Value) bool {
	switch l.(type) {
	case stdlogic.Std:
		_, ok := r.(stdlogic.Std)
		return ok
	case bool:
		_, ok := r.(bool)
		return ok
	case int64:
		_, ok := r.(int64)
		return ok
	case timeVal:
		_, ok := r.(timeVal)
		return ok
	}
	return false
}

func compare(pos Pos, op binOp, l, r kernel.Value) bool {
	cmp := 0
	switch lv := l.(type) {
	case int64:
		rv, ok := r.(int64)
		if !ok {
			evalPanic(pos, "comparing integer with %s", valueString(r))
		}
		switch {
		case lv < rv:
			cmp = -1
		case lv > rv:
			cmp = 1
		}
	case timeVal:
		rv, ok := r.(timeVal)
		if !ok {
			evalPanic(pos, "comparing time with %s", valueString(r))
		}
		switch {
		case lv < rv:
			cmp = -1
		case lv > rv:
			cmp = 1
		}
	case stdlogic.Vec:
		// Unsigned interpretation (numeric_std-style convenience).
		lu, ok1 := lv.Uint()
		rv, ok := r.(stdlogic.Vec)
		if !ok {
			evalPanic(pos, "comparing vector with %s", valueString(r))
		}
		ru, ok2 := rv.Uint()
		if !ok1 || !ok2 {
			evalPanic(pos, "ordering comparison on non-01 vector")
		}
		switch {
		case lu < ru:
			cmp = -1
		case lu > ru:
			cmp = 1
		}
	case EnumVal:
		rv, ok := r.(EnumVal)
		if !ok || rv.Enum.Name != lv.Enum.Name {
			evalPanic(pos, "comparing values of different enumeration types")
		}
		switch {
		case lv.Ord < rv.Ord:
			cmp = -1
		case lv.Ord > rv.Ord:
			cmp = 1
		}
	default:
		evalPanic(pos, "ordering not defined for %s", valueString(l))
	}
	switch op {
	case opLt:
		return cmp < 0
	case opLe:
		return cmp <= 0
	case opGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func addSub(pos Pos, op binOp, l, r kernel.Value) kernel.Value {
	switch lv := l.(type) {
	case int64:
		switch rv := r.(type) {
		case int64:
			if op == opAdd {
				return lv + rv
			}
			return lv - rv
		}
	case timeVal:
		if rv, ok := r.(timeVal); ok {
			if op == opAdd {
				return lv + rv
			}
			if rv > lv {
				evalPanic(pos, "negative time")
			}
			return lv - rv
		}
	case stdlogic.Vec:
		var rv stdlogic.Vec
		switch rr := r.(type) {
		case stdlogic.Vec:
			rv = rr
		case int64:
			rv = stdlogic.FromInt(rr, len(lv))
		default:
			evalPanic(pos, "adding vector and %s", valueString(r))
		}
		if len(rv) != len(lv) {
			evalPanic(pos, "vector length mismatch in %q", op)
		}
		if op == opAdd {
			return stdlogic.AddVec(lv, rv)
		}
		return stdlogic.SubVec(lv, rv)
	}
	evalPanic(pos, "operator %q not defined for %s and %s", op, valueString(l), valueString(r))
	return nil
}

func concat(pos Pos, l, r kernel.Value) kernel.Value {
	// String concatenation (report messages).
	if ls, ok := l.(string); ok {
		return ls + valueString(r)
	}
	if rs, ok := r.(string); ok {
		return valueString(l) + rs
	}
	toVec := func(v kernel.Value) stdlogic.Vec {
		switch vv := v.(type) {
		case stdlogic.Vec:
			return vv
		case stdlogic.Std:
			return stdlogic.Vec{vv}
		}
		evalPanic(pos, "concatenating %s", valueString(v))
		return nil
	}
	lv, rv := toVec(l), toVec(r)
	out := make(stdlogic.Vec, 0, len(lv)+len(rv))
	return append(append(out, lv...), rv...)
}

func arith(pos Pos, op binOp, l, r kernel.Value) kernel.Value {
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if lt, ok := l.(timeVal); ok && rok {
		// time * integer and time / integer.
		switch op {
		case opMul:
			return lt * timeVal(ri)
		case opDiv:
			if ri == 0 {
				evalPanic(pos, "division by zero")
			}
			return lt / timeVal(ri)
		}
	}
	if rt, ok := r.(timeVal); ok && lok && op == opMul {
		return timeVal(li) * rt
	}
	if !lok || !rok {
		evalPanic(pos, "operator %q not defined for %s and %s", op, valueString(l), valueString(r))
	}
	switch op {
	case opMul:
		return li * ri
	case opDiv:
		if ri == 0 {
			evalPanic(pos, "division by zero")
		}
		return li / ri
	case opMod:
		if ri == 0 {
			evalPanic(pos, "mod by zero")
		}
		m := li % ri
		if m != 0 && (m < 0) != (ri < 0) {
			m += ri
		}
		return m
	case opRem:
		if ri == 0 {
			evalPanic(pos, "rem by zero")
		}
		return li % ri
	default: // opPow
		out := int64(1)
		for i := int64(0); i < ri; i++ {
			out *= li
		}
		return out
	}
}

func shift(pos Pos, op binOp, l, r kernel.Value) kernel.Value {
	lv, ok := l.(stdlogic.Vec)
	ri, ok2 := r.(int64)
	if !ok || !ok2 {
		evalPanic(pos, "shift requires vector and integer")
	}
	n := int(ri)
	w := len(lv)
	out := stdlogic.NewVec(w, stdlogic.L0)
	for i := 0; i < w; i++ {
		var src int
		if op == opSll {
			src = i + n
		} else {
			src = i - n
		}
		if src >= 0 && src < w {
			out[i] = lv[src]
		}
	}
	return out
}

// asInt, asBool and asTime convert an evaluated value for an integer,
// boolean or time context.
func asInt(v kernel.Value) int64 {
	i, ok := v.(int64)
	if !ok {
		evalPanic(Pos{}, "expected an integer expression")
	}
	return i
}

func asBool(v kernel.Value) bool {
	switch b := v.(type) {
	case bool:
		return b
	case stdlogic.Std:
		// Common shortcut: "if s" is not legal VHDL but "s = '1'" folds to
		// bool; still, accept std as truthiness of '1'/'H'.
		return stdlogic.IsHigh(b)
	}
	evalPanic(Pos{}, "expected a boolean expression, got %s", valueString(v))
	return false
}

func asTime(v kernel.Value) timeVal {
	switch t := v.(type) {
	case timeVal:
		return t
	case int64:
		return timeVal(t)
	}
	evalPanic(Pos{}, "expected a time expression, got %s", valueString(v))
	return 0
}

// coerce adapts literal kinds to the target type and validates widths.
func coerce(pos Pos, v kernel.Value, t *Type) kernel.Value {
	if t == nil {
		return v
	}
	switch t.Kind {
	case tVec:
		vec, ok := v.(stdlogic.Vec)
		if !ok {
			evalPanic(pos, "expected a vector value, got %s", valueString(v))
		}
		if len(vec) != t.Width() {
			evalPanic(pos, "vector width mismatch: %d vs %d", len(vec), t.Width())
		}
	case tStd:
		if _, ok := v.(stdlogic.Std); !ok {
			evalPanic(pos, "expected std_logic, got %s", valueString(v))
		}
	case tInt:
		iv, ok := v.(int64)
		if !ok {
			evalPanic(pos, "expected integer, got %s", valueString(v))
		}
		if iv < t.Lo || iv > t.Hi {
			evalPanic(pos, "integer value %d out of range %d to %d", iv, t.Lo, t.Hi)
		}
	case tBool:
		if _, ok := v.(bool); !ok {
			evalPanic(pos, "expected boolean, got %s", valueString(v))
		}
	case tTime:
		if _, ok := v.(timeVal); !ok {
			if iv, isInt := v.(int64); isInt {
				return timeVal(iv)
			}
			evalPanic(pos, "expected time, got %s", valueString(v))
		}
	case tEnum:
		ev, ok := v.(EnumVal)
		if !ok || ev.Enum.Name != t.Enum.Name {
			evalPanic(pos, "expected %s, got %s", t.Enum.Name, valueString(v))
		}
	}
	return v
}

// enumEqual compares enum values without panicking on mismatched kinds
// (ValueEqual covers everything else).
func enumEqual(a, d kernel.Value) bool {
	av, ok1 := a.(EnumVal)
	dv, ok2 := d.(EnumVal)
	return ok1 && ok2 && av.Enum.Name == dv.Enum.Name && av.Ord == dv.Ord
}

// toInteger is to_integer and its aliases: a vector's unsigned value.
func toInteger(pos Pos, v kernel.Value) kernel.Value {
	vec, ok := v.(stdlogic.Vec)
	if !ok {
		evalPanic(pos, "to_integer requires a vector")
	}
	u, ok := vec.Uint()
	if !ok {
		// VHDL numeric_std warns and returns 0 on metavalues.
		return int64(0)
	}
	return int64(u)
}

// toX01 is to_x01 of a std_logic or a vector; ok is false for any other
// value.
func toX01(v kernel.Value) (kernel.Value, bool) {
	switch vv := v.(type) {
	case stdlogic.Std:
		return stdlogic.To01(vv), true
	case stdlogic.Vec:
		out := make(stdlogic.Vec, len(vv))
		for i, s := range vv {
			out[i] = stdlogic.To01(s)
		}
		return out, true
	}
	return nil, false
}
