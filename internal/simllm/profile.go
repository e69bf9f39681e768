// Package simllm implements the simulated large language models that stand
// in for the paper's Flan-T5, Tk-Instruct, InstructGPT-3 and ChatGPT (the
// substitution README describes). A Model speaks only text: it parses
// incoming prompts the way the wording was designed to be understood,
// consults the synthetic world's facts, and answers with deterministic,
// profile-specific noise reproducing the failure modes the paper reports —
// popularity-biased recall, hallucinated facts, surface-form variance
// (alpha-2 vs alpha-3 country codes, "1.2 million"), response truncation
// with "more results" fatigue, chatty wrapping, and weak mental arithmetic.
//
// The models are hosted inside galois-serve, so every completion's CPU is
// counted in the server's own CPU per query (the repository benchmark's
// server_cpu_ms_per_query), not in a remote backend. A completion therefore
// costs only time linear in the prompt's length, plus one pass over the
// relation's keys for a list prompt: the world's tables are read in place,
// never copied, and a random decision is one hash that allocates only for
// non-ASCII text.
package simllm

// Profile parameterizes one simulated model. All probabilities are in
// [0,1] and are realized deterministically from hashes of (seed, model,
// entity, attribute), so the same question always gets the same answer
// from the same model — the consistency a single pre-trained checkpoint
// exhibits.
type Profile struct {
	ID          string // short name used in prompts/stats ("gpt3")
	DisplayName string // paper name ("InstructGPT-3")
	Params      string // parameter count as reported ("175B")

	// Recall: an entity is "known" with probability
	// KnowFloor + (KnowCeil-KnowFloor) * popularity^RecallBias.
	KnowFloor  float64
	KnowCeil   float64
	RecallBias float64

	// Belief noise on attribute values.
	HallucinationRate float64 // belief is another entity's value
	UnknownRate       float64 // model refuses ("Unknown")
	NumericFuzz       float64 // probability a numeric belief is off
	NumericSpread     float64 // max relative error when off

	// Surface form noise (affects parsing and joins, not beliefs).
	FormatNoise float64 // alternate number/date renderings
	AltCodeRate float64 // alternate entity spellings (IT vs ITA, USA ...)
	RefAltRate  float64 // systematic alternate style for cross-relation references
	Chattiness  float64 // sentence-wrapped single-value answers

	// List behaviour.
	ListLimit    int     // max items per completion
	MoreFatigue  float64 // probability a "more" prompt stops early
	ExtraKeyRate float64 // hallucinated entities injected into lists

	// Boolean filter prompts.
	BoolAccuracy    float64 // per-key yes/no accuracy
	CombinedPenalty float64 // accuracy loss per extra pushed condition

	// Question answering (the T_M / T_M^C baselines).
	QAListLimit  int     // entities a prose answer enumerates
	QASlip       float64 // per-item holistic reasoning slip
	QAAggErrRate float64 // probability a mental aggregate is off
	QAAggSpread  float64 // max relative error of a mental aggregate
	QAJoinRate   float64 // probability a join pair is produced at all
	CoTAggErrR   float64 // aggregate error rate under the fixed CoT prompt
}

// Profiles for the four models evaluated in Section 5. The numbers are
// calibrated so the benchmark harness reproduces the shape of Tables 1
// and 2 (see EXPERIMENTS.md), not fit to any proprietary system.
var (
	// Flan is Flan-T5-large: small, instruction-tuned, misses many
	// entities and tires quickly when asked for more.
	Flan = Profile{
		ID: "flan", DisplayName: "Flan-T5-large", Params: "783M",
		KnowFloor: 0.08, KnowCeil: 0.90, RecallBias: 1.6,
		HallucinationRate: 0.18, UnknownRate: 0.14,
		NumericFuzz: 0.55, NumericSpread: 0.45,
		FormatNoise: 0.20, AltCodeRate: 0.35, RefAltRate: 0.45, Chattiness: 0,
		ListLimit: 6, MoreFatigue: 0.60, ExtraKeyRate: 0.02,
		BoolAccuracy: 0.72, CombinedPenalty: 0.10,
		QAListLimit: 6, QASlip: 0.28, QAAggErrRate: 0.85, QAAggSpread: 0.5,
		QAJoinRate: 0.03, CoTAggErrR: 0.9,
	}

	// TK is Tk-Instruct-large: a sibling of Flan with slightly better
	// recall but the same small-model weaknesses.
	TK = Profile{
		ID: "tk", DisplayName: "Tk-Instruct-large", Params: "783M",
		KnowFloor: 0.10, KnowCeil: 0.88, RecallBias: 1.5,
		HallucinationRate: 0.16, UnknownRate: 0.12,
		NumericFuzz: 0.50, NumericSpread: 0.40,
		FormatNoise: 0.20, AltCodeRate: 0.35, RefAltRate: 0.45, Chattiness: 0,
		ListLimit: 7, MoreFatigue: 0.55, ExtraKeyRate: 0.02,
		BoolAccuracy: 0.74, CombinedPenalty: 0.10,
		QAListLimit: 6, QASlip: 0.26, QAAggErrRate: 0.85, QAAggSpread: 0.5,
		QAJoinRate: 0.03, CoTAggErrR: 0.9,
	}

	// GPT3 is InstructGPT-3: near-complete recall of the generic-topic
	// world, terse instruction-following answers, slight over-generation
	// (the paper's +1.0% cardinality).
	GPT3 = Profile{
		ID: "gpt3", DisplayName: "InstructGPT-3", Params: "175B",
		KnowFloor: 0.95, KnowCeil: 1.00, RecallBias: 1.0,
		HallucinationRate: 0.06, UnknownRate: 0.03,
		NumericFuzz: 0.30, NumericSpread: 0.25,
		FormatNoise: 0.12, AltCodeRate: 0.15, RefAltRate: 0.20, Chattiness: 0,
		ListLimit: 18, MoreFatigue: 0.03, ExtraKeyRate: 0.09,
		BoolAccuracy: 0.90, CombinedPenalty: 0.07,
		QAListLimit: 20, QASlip: 0.12, QAAggErrRate: 0.70, QAAggSpread: 0.35,
		QAJoinRate: 0.06, CoTAggErrR: 0.8,
	}

	// ChatGPT is GPT-3.5-turbo: strong recall but chatty, stops list
	// iteration early (the −19.5% cardinality), and mixes entity-code
	// surface forms, which is what kills joins in Table 2.
	ChatGPT = Profile{
		ID: "chatgpt", DisplayName: "GPT-3.5-turbo", Params: "175B",
		KnowFloor: 0.93, KnowCeil: 1.00, RecallBias: 1.0,
		HallucinationRate: 0.07, UnknownRate: 0.04,
		NumericFuzz: 0.42, NumericSpread: 0.35,
		FormatNoise: 0.30, AltCodeRate: 0.60, RefAltRate: 0.92, Chattiness: 0.18,
		ListLimit: 13, MoreFatigue: 0.08, ExtraKeyRate: 0.01,
		BoolAccuracy: 0.96, CombinedPenalty: 0.08,
		QAListLimit: 28, QASlip: 0.14, QAAggErrRate: 0.60, QAAggSpread: 0.35,
		QAJoinRate: 0.10, CoTAggErrR: 0.95,
	}
)

// ProfileByName returns the built-in profile with the given ID.
func ProfileByName(id string) (Profile, bool) {
	switch id {
	case "flan":
		return Flan, true
	case "tk":
		return TK, true
	case "gpt3":
		return GPT3, true
	case "chatgpt":
		return ChatGPT, true
	}
	return Profile{}, false
}

// AllProfiles lists the four built-in models in the paper's table order.
func AllProfiles() []Profile { return []Profile{Flan, TK, GPT3, ChatGPT} }
