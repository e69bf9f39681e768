// The one executor of the LLM operators. Each asks its prompts through
// the query's llm.Tenant and hands rows downstream with their answers:
// a resident prompt is read from the prompt cache on the spot
// (llm.Wave.Lookup), a settled value with no future and no lock of the
// tenant's, and only a miss is submitted for a future. Answers are
// awaited in input order. An operator counts its own hits and per-node
// metrics as it runs and folds them into the tenant and the query's
// Metrics once, at Close (tally). The tenant's policy decides how an
// operator issues:
//
//   - streaming (the default) submits prompts as upstream tuples arrive.
//     An operator starts inline: Next pulls a row, asks its prompts and
//     returns it when its answers are already settled, as resident
//     prompts' are. At the first answer still pending it inserts an
//     exchange (Volcano's, placed at run time): a bounded producer goes
//     on from the operator's state, and later rows come through its
//     channel, so the prompt waves of different operators overlap — an
//     attribute fetch starts while the key scan is still iterating "more
//     results" pages, and the verifier runs alongside the primary fetch;
//   - stop-and-go, the paper's execution, starts the producer at Open. It
//     drains the operator's input before the first prompt and issues it
//     as one wave that settles before any row moves downstream, so a
//     LIMIT still pays for the full prompt set and latency sums the
//     waves.
//
// Results are identical under both, whichever goroutine submits: a
// prompt's virtual time is its ready time plus its latency. The channel
// is bounded (Context.PipelineBuffer) and producers watch a done signal,
// so closing the operator tree — a satisfied LIMIT, an error, normal
// completion — stops streaming prompt issue promptly.
package physical

import (
	"io"
	"sync"

	"repro/internal/gopool"
	"repro/internal/llm"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/value"
)

// pipeRow is one tuple in flight between an LLM operator's producer and its
// operator's Next: the tuple, the virtual time its upstream chain
// completed, and the answers extending the chain.
type pipeRow struct {
	row    schema.Tuple
	vt     llm.VTime
	main   answer // fetch or filter prompt; zero for key-scan rows
	verify answer // cross-model verification; zero without a verifier
}

// answer is one prompt's outcome as an LLM operator holds it: the value
// of a resident prompt, read by tally.ask and settled at the prompt's
// ready time, or the future of a prompt that went to the scheduler. The
// zero answer is a settled nil value.
type answer struct {
	f   *llm.Future // nil when settled at ask
	val any         // the resident answer's decoding
}

// settled reports, without blocking, whether decoded would return at once.
func (a answer) settled() bool { return a.f == nil || a.f.Settled() }

// decoded awaits the answer: its decoding and virtual completion time. A
// resident answer completes at ready, its prompt's ready time.
func (a answer) decoded(ready llm.VTime) (any, llm.VTime, error) {
	if a.f == nil {
		return a.val, ready, nil
	}
	return a.f.Decoded()
}

// tally is one LLM operator's accounting while it runs: its prompts'
// cache hits with the latest ready time among them, and its per-node
// counters. The operator keeps it in its own fields, written by whichever
// goroutine runs its issue step (the inline consumer, then its
// producer), so a resident prompt takes no tenant or metrics lock; a
// filter's Next, which may run beside its producer, writes only
// nm.RowsOut, which its issue step leaves alone. fold hands it to the
// tenant and the query's Metrics once, at Close: after the producer has
// exited, and before the query reads its usage or metrics.
type tally struct {
	hits     int
	latest   llm.VTime
	nm       NodeMetrics
	reported bool // an issue step ran, if on no rows: the node has metrics
}

// ask answers one prompt of wave w, counting it: from the prompt cache
// when it is resident, counting the hit, else as a submitted future.
func (a *tally) ask(w *llm.Wave, client llm.Client, tp *llm.Template, key string, ready llm.VTime) answer {
	a.nm.Prompts++
	if _, val, ok := w.Lookup(client, tp, key); ok {
		a.hits++
		a.latest = max(a.latest, ready)
		return answer{val: val}
	}
	return answer{f: w.SubmitMiss(client, tp, key, ready)}
}

// askKey is ask for one row's key. A NULL key, the padding of an outer
// join, asks nothing: its answer is null.
func (a *tally) askKey(w *llm.Wave, client llm.Client, tp *llm.Template, key value.Value, ready llm.VTime, null any) answer {
	if key.IsNull() {
		return answer{val: null}
	}
	return a.ask(w, client, tp, key.String(), ready)
}

// took counts one issue step over rowsIn input rows.
func (a *tally) took(rowsIn int) {
	a.nm.RowsIn += rowsIn
	a.reported = true
}

// fold adds the tally to c's tenant and, as node n's counters, to c's
// Metrics, and clears it, so a second Close adds nothing. An operator
// whose issue step never ran reports no metrics, and one that never
// opened touches no c.
func (a *tally) fold(c *Context, n logical.Node) {
	if a.hits > 0 {
		c.Scheduler.FoldHits(a.hits, a.latest)
	}
	if a.reported {
		c.Metrics.Add(n, a.nm.Prompts, a.nm.RowsIn, a.nm.RowsOut)
	}
	*a = tally{}
}

// pipe is the shared producer/consumer plumbing of the LLM operators
// once their exchange has started: a bounded channel of in-flight rows,
// a done signal that stops the producer (LIMIT early termination,
// Close), and the producer's exit error, surfaced to the consumer after
// the stream drains. The zero pipe is not started.
type pipe struct {
	out  chan pipeRow
	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup
	src  producer
	err  error // written by the producer before out closes
}

// producer is an LLM operator's producer loop: it issues the operator's
// remaining prompts, from the state the operator has reached, and sends
// the rows down the operator's pipe. The operator itself implements it,
// so starting a producer allocates no closure.
type producer interface {
	produce() error
}

// start runs src's producer loop in the background, on a warm gopool
// goroutine, behind a channel of c's pipeline buffer. The producer owns
// the operator's upstream iteration from here on; its error reaches the
// consumer through next.
func (p *pipe) start(c *Context, src producer) {
	p.out, p.done, p.src = make(chan pipeRow, c.pipeBuffer()), make(chan struct{}), src
	p.wg.Add(1)
	gopool.Go(p)
}

// started reports whether the producer was started.
func (p *pipe) started() bool { return p.out != nil }

// Run is the producer, as a gopool task.
func (p *pipe) Run() {
	defer p.wg.Done()
	p.err = p.src.produce()
	close(p.out)
}

// send delivers rows downstream in order, giving up when the consumer
// has terminated; it reports whether the producer should keep going.
func (p *pipe) send(rows ...pipeRow) bool {
	for _, r := range rows {
		select {
		case p.out <- r:
		case <-p.done:
			return false
		}
	}
	return true
}

// stopped reports whether the consumer has terminated the stream; the
// producer polls it between prompts so a closed tree stops issuing new
// work even when the channel still has room.
func (p *pipe) stopped() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// next yields the following in-flight row. When the stream has ended it
// returns the producer's failure, or io.EOF after a clean finish.
func (p *pipe) next() (pipeRow, error) {
	r, ok := <-p.out
	if ok {
		return r, nil
	}
	if p.err != nil {
		return pipeRow{}, p.err
	}
	return pipeRow{}, io.EOF
}

// close tells the producer to stop and waits for it to exit, so Close
// returns with no goroutine still touching the operator or its input. A
// pipe never started closes as a no-op.
func (p *pipe) close() error {
	if p.started() {
		p.stop.Do(func() { close(p.done) })
		p.wg.Wait()
	}
	return nil
}

// issuer is the issue step of a fetch or filter: it asks the prompts of
// one wave of input rows and stores their answers in the rows.
type issuer interface {
	issue(rows []pipeRow) error
}

// exchange runs a fetch or filter over its input: inline until a row's
// answers would wait, then through a producer that feeds the rest of the
// input to the same issue step. Its tally is the operator's.
type exchange struct {
	tally
	c     *Context
	input Operator // nil until opened, and after an inline Close
	op    issuer
	pipe  pipe       // not started while the operator runs inline
	one   [1]pipeRow // the inline row, as the one-row wave issue takes
}

// open starts the exchange over an opened input: stop-and-go, the
// producer starts at once; streaming, the operator runs inline.
func (x *exchange) open(c *Context, input Operator, op issuer) {
	x.c, x.input, x.op = c, input, op
	if c.Scheduler.StopAndGo() {
		x.pipe.start(c, x)
	}
}

// next yields the following row with its answers. Inline, it pulls and
// issues one input row, and starts the producer when that row's answers
// are still pending; the row itself is returned either way.
func (x *exchange) next() (pipeRow, error) {
	if x.pipe.started() {
		return x.pipe.next()
	}
	t, vt, err := x.input.Next()
	if err != nil {
		return pipeRow{}, err
	}
	rows := x.one[:]
	rows[0] = pipeRow{row: t, vt: vt}
	if err := x.op.issue(rows); err != nil {
		return pipeRow{}, err
	}
	if r := rows[0]; !r.main.settled() || !r.verify.settled() {
		x.pipe.start(x.c, x) // from the input's current position
	}
	return rows[0], nil
}

// close stops the producer, which closes the input on exit, or closes
// the input itself when no producer was started; then it folds the
// operator's tally, as node n's.
func (x *exchange) close(n logical.Node) error {
	var err error
	if x.pipe.started() {
		err = x.pipe.close()
	} else if in := x.input; in != nil {
		x.input = nil
		err = in.Close()
	}
	x.fold(x.c, n)
	return err
}

// produce reads the input as prompt waves, lets the issue step submit
// each wave's prompts, and hands the wave's rows downstream; it closes
// the input on exit. Streaming, each tuple is a wave of its own, issued
// as it arrives, and a consumer that has terminated stops the feed
// before another wave is issued; stop-and-go, the whole input is drained
// first and issued as one wave (the drain-input barrier) that runs to
// completion.
func (x *exchange) produce() error {
	defer x.input.Close()
	p := &x.pipe
	stopAndGo := x.c.Scheduler.StopAndGo()
	var rows []pipeRow
	for {
		t, vt, err := x.input.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		rows = append(rows, pipeRow{row: t, vt: vt})
		if stopAndGo {
			continue
		}
		if p.stopped() {
			return nil
		}
		if err := x.op.issue(rows); err != nil || !p.send(rows...) {
			return err
		}
		rows = rows[:0]
	}
	if !stopAndGo {
		return nil
	}
	if err := x.op.issue(rows); err != nil {
		return err
	}
	p.send(rows...)
	return nil
}
