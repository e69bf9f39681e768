// The one executor of the LLM operators: each runs a bounded producer
// that submits its prompts through the query's llm.Tenant and hands the
// in-flight futures downstream through a channel; answers are awaited in
// input order. The tenant's policy decides how the producer issues:
//
//   - streaming (the default) submits prompts as upstream tuples arrive,
//     so prompt waves of different operators overlap — an attribute fetch
//     starts while the key scan is still iterating "more results" pages,
//     and the verifier double-checks cells alongside the primary fetch;
//   - stop-and-go, the paper's execution, drains each operator's input
//     before its first prompt and issues it as one wave that settles
//     before any row moves downstream, so a LIMIT still pays for the full
//     prompt set and latency sums the waves.
//
// Results are identical under both. The channel is bounded
// (Context.PipelineBuffer) and producers watch a done signal, so closing
// the operator tree — a satisfied LIMIT, an error, normal completion —
// stops streaming prompt issue promptly.
package physical

import (
	"io"
	"sync"

	"repro/internal/gopool"
	"repro/internal/llm"
	"repro/internal/schema"
)

// pipeRow is one tuple in flight between an LLM operator's producer and its
// operator's Next: the tuple, the virtual time its upstream chain
// completed, and the futures extending the chain.
type pipeRow struct {
	row    schema.Tuple
	vt     llm.VTime
	main   *llm.Future // fetch or filter prompt; nil for key-scan rows
	verify *llm.Future // cross-model verification; nil without a verifier
}

// pipe is the shared producer/consumer plumbing of the LLM operators: a bounded channel of in-flight rows, a done signal that
// stops the producer (LIMIT early termination, Close), and the
// producer's exit error, surfaced to the consumer after the stream
// drains.
type pipe struct {
	out     chan pipeRow
	done    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup
	produce func() error
	err     error // written by the producer before out closes
}

func newPipe(buffer int) *pipe {
	return &pipe{out: make(chan pipeRow, buffer), done: make(chan struct{})}
}

// run starts produce in the background, on a warm gopool goroutine. The
// producer owns its upstream iteration; its error reaches the consumer
// through next.
func (p *pipe) run(produce func() error) {
	p.produce = produce
	p.wg.Add(1)
	gopool.Go(p)
}

// Run is the producer, as a gopool task.
func (p *pipe) Run() {
	defer p.wg.Done()
	p.err = p.produce()
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
// nil pipe (the operator never started its producer) closes as a no-op.
func (p *pipe) close() error {
	if p != nil {
		p.stop.Do(func() { close(p.done) })
		p.wg.Wait()
	}
	return nil
}

// feed drives an LLM operator's producer: it reads the input as prompt
// waves, lets issue submit each wave's prompts, and hands the wave's rows
// downstream. Streaming, each tuple is a wave of its own, issued as it
// arrives, and a consumer that has terminated stops the feed before
// another wave is issued; stop-and-go, the whole input is drained first
// and issued as one wave (the drain-input barrier) that runs to
// completion.
func (p *pipe) feed(c *Context, input Operator, issue func([]pipeRow) error) error {
	stopAndGo := c.Scheduler.StopAndGo()
	var rows []pipeRow
	for {
		t, vt, err := input.Next()
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
		if err := issue(rows); err != nil || !p.send(rows...) {
			return err
		}
		rows = rows[:0]
	}
	if !stopAndGo {
		return nil
	}
	if err := issue(rows); err != nil {
		return err
	}
	p.send(rows...)
	return nil
}
