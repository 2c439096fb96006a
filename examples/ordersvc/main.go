// Ordersvc client: speak to a running cmd/ordersvc over the wire.
// Where every other example embeds the engine, this one is a pure
// network client — serve.Dial opens one TCP stream (an HTTP/1.1
// upgrade), Submit pipelines transfers up it, and the responses come
// back in commit order, each
// carrying the transaction's global age and a typed error that still
// matches the engine's sentinels through errors.Is.
//
// Run a server first, then this client:
//
//	go run ./cmd/ordersvc -addr 127.0.0.1:7171 -shards 2 -wal /tmp/osvc-wal &
//	go run ./examples/ordersvc -addr 127.0.0.1:7171
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/serve"
)

func transfer(from, to uint32) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:4], from)
	binary.LittleEndian.PutUint32(b[4:8], to)
	return b
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7171", "ordersvc address")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := serve.Dial(ctx, *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Pipelined submission: fire all requests, then collect. Responses
	// resolve in commit order — the ages printed below are strictly
	// increasing because they all share one connection.
	var calls []*serve.Call
	for i := 0; i < 8; i++ {
		call, err := c.Submit(transfer(uint32(i), uint32(i+1)))
		if err != nil {
			log.Fatal(err)
		}
		calls = append(calls, call)
	}
	for i, call := range calls {
		age, err := call.Wait()
		if err != nil {
			log.Fatalf("transfer %d: %v", i, err)
		}
		fmt.Printf("transfer %d committed as global age %d\n", i, age)
	}

	// A burst: SubmitMany writes the frames contiguously so the server
	// coalesces them into one batched submission — the returned ages
	// are consecutive.
	burst := make([][]byte, 4)
	for i := range burst {
		burst[i] = transfer(uint32(10+i), uint32(20+i))
	}
	bcalls, err := c.SubmitMany(burst)
	if err != nil {
		log.Fatal(err)
	}
	for i, call := range bcalls {
		age, err := call.Wait()
		if err != nil {
			log.Fatalf("burst %d: %v", i, err)
		}
		fmt.Printf("burst %d committed as global age %d\n", i, age)
	}

	// A deadline rides the frame header: if the commit takes longer,
	// the response resolves early with an error matching
	// stm.ErrCanceled — the wait was abandoned, not the transaction.
	call, err := c.SubmitTimeout(transfer(1, 2), 50*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := call.Wait(); errors.Is(err, stm.ErrCanceled) {
		fmt.Println("deadline expired before commit (wait abandoned)")
	} else if err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("deadline transfer committed as age %d\n", call.Age())
	}

	if v := c.OrderViolations(); v != 0 {
		log.Fatalf("commit-order contract violated %d times", v)
	}
	fmt.Println("all responses arrived in commit order")
}
