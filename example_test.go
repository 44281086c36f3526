package nodb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// writeExampleCSV writes a small deterministic sales table.
func writeExampleCSV() (string, error) {
	dir, err := os.MkdirTemp("", "nodb-example")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "sales.csv")
	data := "region,amount,year\n" +
		"north,100,2023\n" +
		"south,250,2023\n" +
		"north,75,2024\n" +
		"east,300,2024\n" +
		"south,50,2024\n"
	return path, os.WriteFile(path, []byte(data), 0o644)
}

// ExampleDB_QueryRows iterates a streaming cursor: rows arrive while the
// raw file is being scanned, and closing early (or a LIMIT) stops the
// scan mid-pass.
func ExampleDB_QueryRows() {
	path, err := writeExampleCSV()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(filepath.Dir(path))

	db := Open(Options{})
	defer db.Close()
	if err := db.Attach("sales", TableSpec{Path: path}); err != nil {
		fmt.Println(err)
		return
	}

	rows, err := db.QueryRows(context.Background(), "select region, amount from sales where amount > ?", 80)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer rows.Close()

	for rows.Next() {
		var region string
		var amount int64
		if err := rows.Scan(&region, &amount); err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s %d\n", region, amount)
	}
	if err := rows.Err(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// north 100
	// south 250
	// east 300
}

// ExampleStmt prepares a statement once and executes it repeatedly with
// different `?` arguments; arguments bind as typed values, never as SQL
// text.
func ExampleStmt() {
	path, err := writeExampleCSV()
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(filepath.Dir(path))

	db := Open(Options{})
	defer db.Close()
	if err := db.Attach("sales", TableSpec{Path: path}); err != nil {
		fmt.Println(err)
		return
	}

	stmt, err := db.Prepare("select sum(amount), count(*) from sales where year = ?")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer stmt.Close()

	for _, year := range []int{2023, 2024} {
		res, err := stmt.Query(year)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%d: sum=%s count=%s\n", year, res.Rows[0][0], res.Rows[0][1])
	}
	// Output:
	// 2023: sum=350 count=2
	// 2024: sum=425 count=3
}
