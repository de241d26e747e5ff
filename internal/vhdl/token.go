// Package vhdl implements a front end for a synthesizable-plus-testbench
// subset of IEEE Std 1076 VHDL: lexer, parser, semantic analysis and
// elaboration into the distributed kernel's process/signal graph, plus an
// interpreter for process bodies whose resumption state is an explicit
// stack, making interpreted processes snapshot-able and therefore safe to
// roll back under optimistic simulation (the paper's VHDL-to-C translator
// achieved run()/suspend semantics with generated C classes; the explicit
// interpreter stack is this reproduction's equivalent).
//
// Supported subset (documented deviations in DESIGN.md):
//
//   - entity with generics (integer) and ports (in/out/inout)
//   - architecture with signal/constant declarations, enumeration types
//   - process statements with sensitivity lists or wait statements
//     (wait on / until / for), variables, if/elsif/else, case, for/while
//     loops, exit/next, null, report/assert, signal and variable assignment
//     with inertial/transport delays and multi-element waveforms
//   - concurrent (conditional) signal assignment, component and direct
//     entity instantiation, for-generate
//   - types: std_(u)logic, std_logic_vector, bit, bit_vector, boolean,
//     integer (with ranges), time, enumerations
//   - operators: logical, relational, +, -, &, *, /, mod, rem, **, abs,
//     not, sll, srl; attributes 'event, 'length, 'range, 'left, 'right,
//     'high, 'low; rising_edge/falling_edge and other ieee builtins
package vhdl

import (
	"fmt"
	"strings"
)

// tokKind enumerates token categories.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt     // 42
	tokReal    // 3.14 (parsed, rejected in analysis where unsupported)
	tokChar    // '0'
	tokString  // "0101"
	tokKeyword // reserved word (token.Kw says which)
	// Delimiters.
	tokSemi     // ;
	tokColon    // :
	tokComma    // ,
	tokLParen   // (
	tokRParen   // )
	tokAssign   // :=
	tokArrowSig // <=  (also less-equal; parser disambiguates)
	tokArrow    // =>
	tokEq       // =
	tokNeq      // /=
	tokLt       // <
	tokGt       // >
	tokGe       // >=
	tokPlus     // +
	tokMinus    // -
	tokStar     // *
	tokStarStar // **
	tokSlash    // /
	tokAmp      // &
	tokTick     // '
	tokDot      // .
	tokBar      // |
)

var kindNames = [...]string{
	tokEOF: "end of file", tokIdent: "identifier", tokInt: "integer literal",
	tokReal: "real literal", tokChar: "character literal", tokString: "string literal",
	tokKeyword: "keyword", tokSemi: "';'", tokColon: "':'", tokComma: "','",
	tokLParen: "'('", tokRParen: "')'", tokAssign: "':='", tokArrowSig: "'<='",
	tokArrow: "'=>'", tokEq: "'='", tokNeq: "'/='", tokLt: "'<'", tokGt: "'>'",
	tokGe: "'>='", tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'",
	tokStarStar: "'**'", tokSlash: "'/'", tokAmp: "'&'", tokTick: "'''",
	tokDot: "'.'", tokBar: "'|'",
}

func (k tokKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

// token is one lexical token. It holds no pointer: its text is the byte
// range [Off, End) of the source, so a file's token array is one allocation
// the garbage collector never scans. That range is the token's text as it
// stands (an identifier already in lower case, a literal with nothing to
// unescape) unless Fix is set; tokenText applies the fix.
type token struct {
	Kind tokKind
	Kw   keyword // the reserved word when Kind is tokKeyword, else kwNone
	// Fix marks text that differs from its source range: an identifier with
	// upper-case letters, a string literal with a doubled quote, a number
	// with underscores.
	Fix       bool
	Line, Col int32
	Off, End  int32
}

// tokenText returns the text of t in src: an identifier lower-cased, a
// keyword's word, a literal's body.
func tokenText(src string, t token) string {
	if t.Kw != kwNone {
		return keywordNames[t.Kw]
	}
	s := src[t.Off:t.End]
	if !t.Fix {
		return s
	}
	switch t.Kind {
	case tokIdent:
		return strings.ToLower(s)
	case tokChar:
		return string(rune(s[0]))
	case tokString:
		return strings.ReplaceAll(s, `""`, `"`)
	}
	return strings.ReplaceAll(s, "_", "")
}

// describe renders t for an error message.
func describe(src string, t token) string {
	switch t.Kind {
	case tokIdent, tokKeyword:
		return fmt.Sprintf("%q", tokenText(src, t))
	case tokInt, tokReal:
		return tokenText(src, t)
	case tokChar:
		return "'" + tokenText(src, t) + "'"
	case tokString:
		return `"` + tokenText(src, t) + `"`
	default:
		return t.Kind.String()
	}
}

// keyword identifies a reserved word of the supported subset (plus the
// reserved words we must recognize to reject gracefully). The zero value,
// kwNone, marks every token that is not a keyword, so the parser tests for a
// keyword with one byte comparison.
type keyword uint8

const kwNone keyword = 0

const (
	kwAbs keyword = iota + 1
	kwAfter
	kwAlias
	kwAll
	kwAnd
	kwArchitecture
	kwArray
	kwAssert
	kwAttribute
	kwBegin
	kwBlock
	kwBody
	kwBuffer
	kwBus
	kwCase
	kwComponent
	kwConfiguration
	kwConstant
	kwDisconnect
	kwDownto
	kwElse
	kwElsif
	kwEnd
	kwEntity
	kwExit
	kwFile
	kwFor
	kwFunction
	kwGenerate
	kwGeneric
	kwGroup
	kwGuarded
	kwIf
	kwImpure
	kwIn
	kwInertial
	kwInout
	kwIs
	kwLabel
	kwLibrary
	kwLinkage
	kwLiteral
	kwLoop
	kwMap
	kwMod
	kwNand
	kwNew
	kwNext
	kwNor
	kwNot
	kwNull
	kwOf
	kwOn
	kwOpen
	kwOr
	kwOthers
	kwOut
	kwPackage
	kwPort
	kwPostponed
	kwProcedure
	kwProcess
	kwPure
	kwRange
	kwRecord
	kwRegister
	kwReject
	kwRem
	kwReport
	kwReturn
	kwRol
	kwRor
	kwSelect
	kwSeverity
	kwSignal
	kwShared
	kwSla
	kwSll
	kwSra
	kwSrl
	kwSubtype
	kwThen
	kwTo
	kwTransport
	kwType
	kwUnaffected
	kwUnits
	kwUntil
	kwUse
	kwVariable
	kwWait
	kwWhen
	kwWhile
	kwWith
	kwXnor
	kwXor
	numKeywords
)

// keywordNames spells each keyword.
var keywordNames = [numKeywords]string{
	kwAbs: "abs", kwAfter: "after", kwAlias: "alias", kwAll: "all",
	kwAnd: "and", kwArchitecture: "architecture", kwArray: "array",
	kwAssert: "assert", kwAttribute: "attribute", kwBegin: "begin",
	kwBlock: "block", kwBody: "body", kwBuffer: "buffer", kwBus: "bus",
	kwCase: "case", kwComponent: "component", kwConfiguration: "configuration",
	kwConstant: "constant", kwDisconnect: "disconnect", kwDownto: "downto",
	kwElse: "else", kwElsif: "elsif", kwEnd: "end", kwEntity: "entity",
	kwExit: "exit", kwFile: "file", kwFor: "for", kwFunction: "function",
	kwGenerate: "generate", kwGeneric: "generic", kwGroup: "group",
	kwGuarded: "guarded", kwIf: "if", kwImpure: "impure", kwIn: "in",
	kwInertial: "inertial", kwInout: "inout", kwIs: "is", kwLabel: "label",
	kwLibrary: "library", kwLinkage: "linkage", kwLiteral: "literal",
	kwLoop: "loop", kwMap: "map", kwMod: "mod", kwNand: "nand", kwNew: "new",
	kwNext: "next", kwNor: "nor", kwNot: "not", kwNull: "null", kwOf: "of",
	kwOn: "on", kwOpen: "open", kwOr: "or", kwOthers: "others", kwOut: "out",
	kwPackage: "package", kwPort: "port", kwPostponed: "postponed",
	kwProcedure: "procedure", kwProcess: "process", kwPure: "pure",
	kwRange: "range", kwRecord: "record", kwRegister: "register",
	kwReject: "reject", kwRem: "rem", kwReport: "report", kwReturn: "return",
	kwRol: "rol", kwRor: "ror", kwSelect: "select", kwSeverity: "severity",
	kwSignal: "signal", kwShared: "shared", kwSla: "sla", kwSll: "sll",
	kwSra: "sra", kwSrl: "srl", kwSubtype: "subtype", kwThen: "then",
	kwTo: "to", kwTransport: "transport", kwType: "type",
	kwUnaffected: "unaffected", kwUnits: "units", kwUntil: "until",
	kwUse: "use", kwVariable: "variable", kwWait: "wait", kwWhen: "when",
	kwWhile: "while", kwWith: "with", kwXnor: "xnor", kwXor: "xor",
}

// kwTable maps the hash of a lower-cased word (wordHash) to its keyword by
// open addressing; a zero slot ends a probe. It is filled once from
// keywordNames, so the lexer classifies a word without hashing it into a map
// or building its lower-cased string.
var kwTable = func() (t [kwTableSize]keyword) {
	for k := keyword(1); k < numKeywords; k++ {
		h := uint32(wordHashSeed)
		for i := 0; i < len(keywordNames[k]); i++ {
			h = wordHash(h, keywordNames[k][i])
		}
		i := h & (kwTableSize - 1)
		for t[i] != kwNone {
			i = (i + 1) & (kwTableSize - 1)
		}
		t[i] = k
	}
	return t
}()

const (
	kwTableSize  = 512 // a power of two, over four times numKeywords
	wordHashSeed = 2166136261
)

// wordHash folds the lower-cased byte c into h (FNV-1a).
func wordHash(h uint32, c byte) uint32 { return (h ^ uint32(c)) * 16777619 }

// lookupKeyword returns the keyword spelled by word, whose lower-cased bytes
// hash to h; folded says word has upper-case letters.
func lookupKeyword(h uint32, word string, folded bool) keyword {
	for i := h & (kwTableSize - 1); ; i = (i + 1) & (kwTableSize - 1) {
		k := kwTable[i]
		if k == kwNone {
			return kwNone
		}
		name := keywordNames[k]
		if len(name) == len(word) && (name == word || folded && strings.EqualFold(name, word)) {
			return k
		}
	}
}

// Error is a front-end error with source position.
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	if e.File == "" {
		return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

// ModelDiagnostic marks Error as a fault of the simulated design rather than
// the engine: when one escapes a running process, the pdes layer converts it
// into a Model-flagged SimError instead of crashing the run.
func (e *Error) ModelDiagnostic() {}
