// Package deadexportuse is the client side of the deadexport corpus.
package deadexportuse

import (
	"fmt"

	"deadexport"
)

func init() {
	fmt.Println(deadexport.Used(), deadexport.Temp(3), deadexport.Load())
}
