package visual

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"
)

// cellAttrsLiteral is the map the table builders wrote per cell before
// CellAttrs shared them.
func cellAttrsLiteral(row, col int) map[string]string {
	r, c := fmt.Sprint(row), fmt.Sprint(col)
	if row == -1 {
		r = "h"
	}
	if col == -1 {
		c = "out"
	}
	return map[string]string{"row": r, "col": c}
}

func sameMap(a, b map[string]string) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestCellAttrsContents checks CellAttrs against the literal maps it
// replaced at every shared (row, col), the header row and "out" column
// included, and just outside the shared range; inside it a second call
// returns the same map, outside it every call a fresh one.
func TestCellAttrsContents(t *testing.T) {
	for row := -1; row <= cellAttrRows; row++ {
		for col := -1; col <= cellAttrCols; col++ {
			got, want := CellAttrs(row, col), cellAttrsLiteral(row, col)
			if !maps.Equal(got, want) {
				t.Fatalf("CellAttrs(%d, %d) = %v, want %v", row, col, got, want)
			}
			shared := row+1 < cellAttrRows && col+1 < cellAttrCols
			if again := CellAttrs(row, col); sameMap(got, again) != shared {
				t.Errorf("CellAttrs(%d, %d): second call same map %v, want %v", row, col, !shared, shared)
			}
		}
	}
}

// TestCellAttrsConcurrentFirstUse clears the shared maps and has
// goroutines race for every slot's first call: all of them, and every
// later call, must get the one map the slot holds.
func TestCellAttrsConcurrentFirstUse(t *testing.T) {
	for r := range cellAttrs {
		for c := range cellAttrs[r] {
			cellAttrs[r][c].Store(nil)
		}
	}
	const goroutines = 4
	var got [goroutines][cellAttrRows][cellAttrCols]map[string]string
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := range got[g] {
				for c := range got[g][r] {
					got[g][r][c] = CellAttrs(r-1, c-1)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for r := 0; r < cellAttrRows; r++ {
		for c := 0; c < cellAttrCols; c++ {
			want := CellAttrs(r-1, c-1)
			for g := range got {
				if !sameMap(got[g][r][c], want) {
					t.Fatalf("goroutine %d got a different map for (%d, %d)", g, r-1, c-1)
				}
			}
		}
	}
}
