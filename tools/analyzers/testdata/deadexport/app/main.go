package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var e lib.Exported
	fmt.Println(lib.Used(), e)
}
