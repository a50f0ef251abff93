// Package persist provides durable formats for the library's big
// artifacts: datasets (a self-describing CSV dialect for interchange with
// real POI/check-in exports) and the ingest path's object codec and
// snapshots. Aggregate pyramids are not stored: every boot builds them.
package persist

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"asrs/internal/attr"
	"asrs/internal/geom"
)

// The CSV dialect:
//
//	# asrs-dataset v1
//	# attr category categorical Apartment|Supermarket|Restaurant
//	# attr price numeric
//	x,y,category,price
//	103.82,1.30,Apartment,3.5
//
// Comment directives declare the schema (order defines attribute order);
// the header row and every record follow encoding/csv rules. Categorical
// values are written as their domain strings.

const csvMagic = "# asrs-dataset v1"

// WriteCSV serializes a dataset.
func WriteCSV(w io.Writer, ds *attr.Dataset) error {
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("persist: refusing to write invalid dataset: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, csvMagic)
	for i := 0; i < ds.Schema.Len(); i++ {
		a := ds.Schema.At(i)
		switch a.Kind {
		case attr.Categorical:
			for _, v := range a.Domain {
				if strings.ContainsAny(v, "|\n") {
					return fmt.Errorf("persist: domain value %q contains reserved characters", v)
				}
			}
			fmt.Fprintf(bw, "# attr %s categorical %s\n", a.Name, strings.Join(a.Domain, "|"))
		case attr.Numeric:
			fmt.Fprintf(bw, "# attr %s numeric\n", a.Name)
		default:
			return fmt.Errorf("persist: attribute %q has unknown kind", a.Name)
		}
	}
	cw := csv.NewWriter(bw)
	header := []string{"x", "y"}
	for i := 0; i < ds.Schema.Len(); i++ {
		header = append(header, ds.Schema.At(i).Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for oi := range ds.Objects {
		o := &ds.Objects[oi]
		rec[0] = strconv.FormatFloat(o.Loc.X, 'g', -1, 64)
		rec[1] = strconv.FormatFloat(o.Loc.Y, 'g', -1, 64)
		for i := 0; i < ds.Schema.Len(); i++ {
			a := ds.Schema.At(i)
			if a.Kind == attr.Categorical {
				rec[2+i] = a.Domain[o.Values[i].Cat]
			} else {
				rec[2+i] = strconv.FormatFloat(o.Values[i].Num, 'g', -1, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV (or hand-authored in the
// same dialect). A row the schema refuses (attr.Schema.Check) fails the
// read, naming the row.
func ReadCSV(r io.Reader) (*attr.Dataset, error) {
	br := bufio.NewReader(r)
	line, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if strings.TrimSpace(line) != csvMagic {
		return nil, fmt.Errorf("persist: not an asrs dataset (missing %q header)", csvMagic)
	}
	var attrs []attr.Attribute
	var headerLine string
	for {
		line, err = readLine(br)
		if err != nil {
			return nil, fmt.Errorf("persist: truncated before header row: %w", err)
		}
		if !strings.HasPrefix(line, "#") {
			headerLine = line
			break
		}
		fields := strings.Fields(strings.TrimPrefix(line, "#"))
		if len(fields) < 3 || fields[0] != "attr" {
			return nil, fmt.Errorf("persist: malformed directive %q", line)
		}
		name := fields[1]
		switch fields[2] {
		case "categorical":
			if len(fields) < 4 {
				return nil, fmt.Errorf("persist: categorical attribute %q missing domain", name)
			}
			attrs = append(attrs, attr.Attribute{
				Name:   name,
				Kind:   attr.Categorical,
				Domain: strings.Split(strings.Join(fields[3:], " "), "|"),
			})
		case "numeric":
			attrs = append(attrs, attr.Attribute{Name: name, Kind: attr.Numeric})
		default:
			return nil, fmt.Errorf("persist: attribute %q has unknown kind %q", name, fields[2])
		}
	}
	schema, err := attr.NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}

	cr := csv.NewReader(strings.NewReader(headerLine))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("persist: bad header row: %w", err)
	}
	if len(header) != 2+schema.Len() || header[0] != "x" || header[1] != "y" {
		return nil, fmt.Errorf("persist: header %v does not match schema", header)
	}
	for i := 0; i < schema.Len(); i++ {
		if header[2+i] != schema.At(i).Name {
			return nil, fmt.Errorf("persist: header column %q does not match attribute %q", header[2+i], schema.At(i).Name)
		}
	}

	body := csv.NewReader(br)
	body.FieldsPerRecord = 2 + schema.Len()
	var objects []attr.Object
	for rowNum := 2; ; rowNum++ {
		rec, err := body.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("persist: row %d: %w", rowNum, err)
		}
		x, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("persist: row %d: bad x %q", rowNum, rec[0])
		}
		y, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("persist: row %d: bad y %q", rowNum, rec[1])
		}
		values := make([]attr.Value, schema.Len())
		for i := 0; i < schema.Len(); i++ {
			a := schema.At(i)
			if a.Kind == attr.Categorical {
				ci := schema.ValueIndex(a.Name, rec[2+i])
				if ci < 0 {
					return nil, fmt.Errorf("persist: row %d: value %q not in dom(%s)", rowNum, rec[2+i], a.Name)
				}
				values[i] = attr.CatValue(ci)
			} else {
				v, err := strconv.ParseFloat(rec[2+i], 64)
				if err != nil {
					return nil, fmt.Errorf("persist: row %d: bad numeric %q for %s", rowNum, rec[2+i], a.Name)
				}
				values[i] = attr.NumValue(v)
			}
		}
		o := attr.Object{Loc: geom.Point{X: x, Y: y}, Values: values}
		if err := schema.Check(&o); err != nil {
			return nil, fmt.Errorf("persist: row %d: %w: %v", rowNum, attr.ErrInvalid, err)
		}
		objects = append(objects, o)
	}
	return &attr.Dataset{Schema: schema, Objects: objects}, nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil && (err != io.EOF || line == "") {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}
