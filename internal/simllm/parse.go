package simllm

import (
	"strconv"
	"strings"

	"repro/internal/prompt"
	"repro/internal/world"
)

// dispatch routes one incoming prompt to the matching behaviour. A real
// model "understands" these prompts from pre-training; the simulation
// recognizes the canonical wording generated by package prompt, plus the
// QA question formats.
func (m *Model) dispatch(text string) string {
	body := text
	if strings.HasPrefix(body, prompt.FewShotPreamble) {
		body = strings.TrimSpace(body[len(prompt.FewShotPreamble):])
	}
	switch {
	case strings.HasPrefix(body, prompt.ListAnchor), strings.HasPrefix(body, prompt.MoreAnchor):
		return m.handleList(body)
	case strings.HasPrefix(body, prompt.AttrAnchor):
		return m.handleAttr(body)
	case strings.HasPrefix(body, prompt.FilterAnchor):
		return m.handleFilter(body)
	case strings.Contains(body, "Let's reason step by step"):
		return m.handleCoTQA(body)
	case strings.HasPrefix(body, "Q:"):
		return m.handleQA(body)
	default:
		return prompt.UnknownMarker
	}
}

// pushedCond is a condition parsed out of a merged list prompt.
type pushedCond struct {
	attrLabel string
	op        string
	valueText string
}

// opPhrases in parse order; two-word phrases are unambiguous against our
// value vocabulary.
var opPhrases = []string{"different from", "equal to", "less than", "more than", "at most", "at least"}

func parsePushedCond(s string) (pushedCond, bool) {
	for _, phrase := range opPhrases {
		if i := strings.Index(s, " "+phrase+" "); i >= 0 {
			op, _ := prompt.ParseOpPhrase(phrase)
			return pushedCond{
				attrLabel: strings.TrimSpace(s[:i]),
				op:        op,
				valueText: strings.TrimSpace(s[i+len(phrase)+2:]),
			}, true
		}
	}
	return pushedCond{}, false
}

// normKey normalizes an entity mention for exclusion-list matching.
func normKey(s string) string {
	return strings.ToLower(strings.TrimRight(strings.TrimSpace(s), ".,;"))
}

// canon resolves alias spellings of entity names to their canonical form:
// the model's understanding is tolerant even when its output is not.
func (m *Model) canon(key string) string {
	key = strings.TrimSpace(key)
	if c, ok := m.world.Alias(key); ok {
		return c
	}
	return key
}

// handleList answers key-retrieval prompts, including the "more results"
// iteration and pushed-down conditions.
func (m *Model) handleList(body string) string {
	more := strings.HasPrefix(body, prompt.MoreAnchor)
	var rest string
	if more {
		rest = strings.TrimSpace(body[len(prompt.MoreAnchor):])
	} else {
		rest = strings.TrimSpace(body[len(prompt.ListAnchor):])
	}
	dot := strings.Index(rest, ".")
	if dot < 0 {
		return prompt.UnknownMarker
	}
	clause := rest[:dot]
	after := rest[dot+1:]

	noun := clause
	var conds []pushedCond
	if i := strings.Index(clause, " with "); i >= 0 {
		noun = clause[:i]
		for _, part := range strings.Split(clause[i+len(" with "):], " and ") {
			if c, ok := parsePushedCond(part); ok {
				conds = append(conds, c)
			}
		}
	}
	rel, ok := m.world.FindRelation(noun)
	if !ok {
		return prompt.UnknownMarker
	}

	exclude := map[string]bool{}
	if j := strings.Index(after, prompt.ExcludeAnchor); j >= 0 {
		seg := after[j+len(prompt.ExcludeAnchor):]
		if k := strings.Index(seg, prompt.LineFormat); k >= 0 {
			seg = seg[:k]
		}
		seg = strings.TrimSpace(seg)
		seg = strings.TrimSuffix(seg, ".")
		for _, item := range strings.Split(seg, ";") {
			if n := normKey(item); n != "" {
				exclude[n] = true
			}
			// The model understands alias spellings of its own earlier
			// answers ("People's Republic of China" is China).
			if c := normKey(m.canon(item)); c != "" {
				exclude[c] = true
			}
		}
	}

	// Recalled entities passing the pushed conditions.
	var avail []string
	var buf [128]byte
	for _, k := range m.knownKeys(rel) {
		// exclude[normKey(k)], lower-cased on the stack.
		if exclude[string(world.FoldKey(&buf, strings.TrimRight(strings.TrimSpace(k), ".,;")))] {
			continue
		}
		if !m.passesPushed(rel, k, conds) {
			continue
		}
		avail = append(avail, k)
	}

	// "More results" fatigue: the model loses interest after a few rounds
	// even when it knows more entities.
	if more {
		round := len(exclude) / maxInt(m.profile.ListLimit, 1)
		fatigue := m.profile.MoreFatigue * float64(round+1) / 2
		if m.h01("fatigue", rel, strconv.Itoa(len(exclude))) < fatigue {
			return prompt.DoneMarker
		}
	}
	if len(avail) == 0 {
		if more {
			return prompt.DoneMarker
		}
		return prompt.UnknownMarker
	}

	batch := avail
	if len(batch) > m.profile.ListLimit {
		batch = batch[:m.profile.ListLimit]
	}

	lines := make([]string, 0, len(batch)+2)
	if m.profile.Chattiness > 0 && m.h01("chatlist", rel, strconv.Itoa(len(exclude))) < m.profile.Chattiness {
		lines = append(lines, "Here are some "+noun+":")
	}
	for _, k := range batch {
		lines = append(lines, m.renderKeyMention(rel, k))
	}
	// Occasional hallucinated entity from a neighbouring topic.
	if m.h01("extra", rel, strconv.Itoa(len(exclude))) < m.profile.ExtraKeyRate*float64(len(batch)) {
		if foreign := m.foreignKey(rel); foreign != "" && !exclude[normKey(foreign)] {
			lines = append(lines, foreign)
		}
	}
	return strings.Join(lines, "\n")
}

// passesPushed evaluates merged conditions with the accuracy penalty the
// paper attributes to combined prompts.
func (m *Model) passesPushed(rel, key string, conds []pushedCond) bool {
	if len(conds) == 0 {
		return true
	}
	acc := m.profile.BoolAccuracy - m.profile.CombinedPenalty*float64(len(conds)-1) - m.profile.CombinedPenalty
	for _, c := range conds {
		attr, ok := m.world.FindAttr(rel, c.attrLabel)
		if !ok {
			return false
		}
		bv, known := m.belief(rel, key, attr)
		res := known && evalCond(bv, c.op, c.valueText)
		if m.h01("pushcond", rel, key, attr, c.op, c.valueText) > acc {
			res = !res
		}
		if !res {
			return false
		}
	}
	return true
}

// renderKeyMention renders a key in a list answer, occasionally using the
// entity's alternate spelling (output noise that downstream joins and the
// evaluation's tuple mapping must survive).
func (m *Model) renderKeyMention(rel, key string) string {
	if alt, ok := m.world.EntityAlt(rel, key); ok {
		if m.h01("keyalias", rel, key) < m.profile.AltCodeRate*0.3 {
			return alt
		}
	}
	return key
}

// foreignKey picks a famous entity from another relation — the kind of
// category confusion that inflates result cardinality.
func (m *Model) foreignKey(rel string) string {
	tables := m.world.Tables()
	for off := 0; off < len(tables); off++ {
		other := tables[(m.hInt(len(tables), "foreignrel", rel)+off)%len(tables)]
		if strings.EqualFold(other, rel) || other == "employees" {
			continue
		}
		keys := m.world.KeysByPopularity(other)
		if len(keys) == 0 {
			continue
		}
		return keys[m.hInt(len(keys), "foreignkey", rel, other)].Key
	}
	return ""
}

// handleAttr answers per-key attribute fetches.
func (m *Model) handleAttr(body string) string {
	rest := strings.TrimSpace(body[len(prompt.AttrAnchor):])
	qm := strings.Index(rest, "?")
	if qm < 0 {
		return prompt.UnknownMarker
	}
	core := rest[:qm]
	i := strings.Index(core, " of the ")
	if i < 0 {
		return prompt.UnknownMarker
	}
	attrLabel := strings.TrimSpace(core[:i])
	relAndKey := strings.TrimSpace(core[i+len(" of the "):])
	sp := strings.IndexByte(relAndKey, ' ')
	if sp < 0 {
		return prompt.UnknownMarker
	}
	relNoun := relAndKey[:sp]
	key := m.canon(relAndKey[sp+1:])

	rel, ok := m.world.FindRelation(relNoun)
	if !ok {
		return prompt.UnknownMarker
	}
	attr, ok := m.world.FindAttr(rel, attrLabel)
	if !ok {
		return prompt.UnknownMarker
	}
	pop := m.world.Popularity(rel, key)
	if pop == 0 || !m.knows(rel, key, pop) {
		return prompt.UnknownMarker
	}
	bv, known := m.belief(rel, key, attr)
	if !known {
		return prompt.UnknownMarker
	}
	answer := m.render(rel, key, attr, bv)
	if m.h01("chatattr", rel, key, attr) < m.profile.Chattiness {
		return "The " + attrLabel + " of " + key + " is " + answer + "."
	}
	return answer
}

// handleFilter answers per-key boolean selection prompts.
func (m *Model) handleFilter(body string) string {
	rest := strings.TrimSpace(body[len(prompt.FilterAnchor):])
	qm := strings.Index(rest, "?")
	if qm < 0 {
		return "no"
	}
	core := rest[:qm]
	sp := strings.IndexByte(core, ' ')
	if sp < 0 {
		return "no"
	}
	relNoun := core[:sp]
	remainder := strings.TrimSpace(core[sp+1:])

	rel, ok := m.world.FindRelation(relNoun)
	if !ok {
		return "no"
	}

	// Locate the operator phrase; left of it is "<key> <attr label>",
	// right of it the literal.
	var op, left, lit string
	found := false
	for _, phrase := range opPhrases {
		if i := strings.Index(remainder, " "+phrase+" "); i >= 0 {
			op, _ = prompt.ParseOpPhrase(phrase)
			left = strings.TrimSpace(remainder[:i])
			lit = strings.TrimSpace(remainder[i+len(phrase)+2:])
			found = true
			break
		}
	}
	if !found {
		return "no"
	}

	key, attr, ok := m.splitKeyAttr(rel, left)
	if !ok {
		return "no"
	}
	key = m.canon(key)
	pop := m.world.Popularity(rel, key)
	if pop == 0 || !m.knows(rel, key, pop) {
		return "no"
	}
	bv, known := m.belief(rel, key, attr)
	res := known && evalCond(bv, op, lit)
	// Per-key yes/no reliability.
	if m.h01("boolacc", rel, key, attr, op, lit) > m.profile.BoolAccuracy {
		res = !res
	}
	if res {
		return "yes"
	}
	return "no"
}

// splitKeyAttr separates "<key> <attr label>" by matching the longest
// humanized attribute label of the relation as a suffix.
func (m *Model) splitKeyAttr(rel, s string) (key, attr string, ok bool) {
	def := m.world.Def(rel)
	if def == nil {
		return "", "", false
	}
	lower := strings.ToLower(s)
	best := ""
	bestLabel := ""
	for _, c := range def.Schema.Columns {
		label := strings.ToLower(prompt.Humanize(c.Name))
		if strings.HasSuffix(lower, " "+label) && len(label) > len(bestLabel) {
			best = c.Name
			bestLabel = label
		}
	}
	if best == "" {
		return "", "", false
	}
	return strings.TrimSpace(s[:len(s)-len(bestLabel)-1]), best, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
