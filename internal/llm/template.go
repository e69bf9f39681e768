package llm

import "hash/maphash"

// Template is the part of one operator's per-key prompts that does not
// depend on the key: the text before and after it, the class their
// completions are cached under, and what that text costs in tokens. An
// attribute fetch or boolean filter builds its template once, in Open,
// and submits each prompt as (template, key). The prompt cache keys the
// completion by the template's id and the key, and the full text is
// built only when the prompt goes to the model.
//
// A template may also carry a decoder (NewDecodedTemplate): what the
// operator makes of an answer. A miss decodes its answer once, the cache
// keeps the value beside the text, and a hit returns the value without
// reading the text again.
//
// A raw-text prompt (an ad-hoc Tenant.Submit) is the template-less case:
// id 0, no text around the key, and the whole text as the key.
type Template struct {
	pre, post string
	class     PromptClass
	// id hashes (pre, post). The cache checks pre and post on every hit,
	// so two templates colliding on one id cost a prompt, never an answer.
	id uint64
	// preTok and postTok count pre's and post's tokens. preWord: pre ends
	// inside a word; postWord: post starts inside one. preOpen: pre ends
	// in an incomplete UTF-8 sequence that the key could complete.
	preTok, postTok   int
	preWord, postWord bool
	preOpen           bool
	// decode turns an answer into the value the operator consumes; nil
	// when the operator reads the text. tag identifies decode.
	decode func(string) any
	tag    any
}

// templateSeed seeds every template id; ids are never persisted.
var templateSeed = maphash.MakeSeed()

// NewTemplate builds the template of the prompts pre + key + post, whose
// completions are cached under class.
func NewTemplate(pre, post string, class PromptClass) *Template {
	return NewDecodedTemplate(pre, post, class, nil, nil)
}

// NewDecodedTemplate is NewTemplate for an operator that decodes its
// answers with decode, built in one allocation. decode must be a pure
// function of the answer that never returns nil. tag names it and must
// be comparable: a decoded value is handed only to a template of the same
// text and an equal tag, so two decoders sharing a tag must agree on
// every answer.
func NewDecodedTemplate(pre, post string, class PromptClass, tag any, decode func(string) any) *Template {
	tp := &Template{pre: pre, post: post, class: class, decode: decode, tag: tag}
	var h maphash.Hash
	h.SetSeed(templateSeed)
	h.WriteString(pre)
	h.WriteByte(0)
	h.WriteString(post)
	if tp.id = h.Sum64(); tp.id == 0 {
		tp.id = 1 // 0 is the template-less id
	}
	tp.preTok, _, tp.preWord, tp.preOpen = scanTokens(pre)
	tp.postTok, tp.postWord, _, _ = scanTokens(post)
	return tp
}

// value is what a consumer of tp reads from the answer out: v, when it is
// tp's decoding of out already, else out decoded now. It is nil for a
// template without a decoder.
func (tp *Template) value(out string, v any) any {
	if v == nil && tp.decode != nil {
		v = tp.decode(out)
	}
	return v
}

// rawText is the template of an unclassified raw-text prompt.
var rawText = &Template{}

// text is the prompt for key: pre + key + post. For a raw-text prompt it
// is the key itself, and building it allocates nothing.
func (tp *Template) text(key string) string { return tp.pre + key + tp.post }

// tokens is CountTokens(tp.text(key)), counted over the key alone: pre's
// and post's counts are fixed, and a word that runs across one of the
// key's boundaries counts once. Only when a rune may run across a
// boundary (an incomplete UTF-8 sequence at the end of pre or the key)
// is the text itself counted.
func (tp *Template) tokens(key string) int {
	n, first, last, open := scanTokens(key)
	if open || tp.preOpen {
		return CountTokens(tp.text(key))
	}
	n += tp.preTok + tp.postTok
	if key == "" {
		first, last = tp.postWord, false // pre meets post
	}
	if tp.preWord && first {
		n--
	}
	if last && tp.postWord {
		n--
	}
	return n
}

// same reports whether a completion stored under template a answers a
// prompt of template b: the same template, or another one with the same
// text around the key.
func same(a, b *Template) bool {
	return a == b || a.pre == b.pre && a.post == b.post
}
