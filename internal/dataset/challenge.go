package dataset

// Challenge builds the "ChipVQA challenge collection" of §IV-A: every
// multiple-choice question is replaced by a short-answer question whose
// prompt is unchanged but whose answer options are removed. The golden
// answer becomes the content of the previously-correct option. Questions
// that already were short answer pass through untouched (shallow copy).
func (b *Benchmark) Challenge() *Benchmark {
	out := &Benchmark{Name: b.Name + "-challenge"}
	out.Questions = make([]*Question, 0, len(b.Questions))
	for _, q := range b.Questions {
		out.Questions = append(out.Questions, q.StripChoices())
	}
	return out
}

// StripChoices returns a short-answer variant of the question. For a
// question that is already short answer, it returns a copy unchanged.
// Either way the copy's Memo is empty.
func (q *Question) StripChoices() *Question {
	cp := q.Clone()
	cp.Challenge = true
	if q.Type != MultipleChoice {
		return cp
	}
	cp.Type = ShortAnswer
	cp.Choices = nil
	golden := q.Golden
	// The correct option's content becomes the expected short answer.
	// Its kind is recorded on the original answer: options that hold a
	// number keep numeric comparison; expressions keep canonical
	// comparison; everything else is a phrase. Accept already lists the
	// equivalents the judge should honor.
	switch {
	case golden.Unit != "" || golden.Tolerance > 0:
		cp.Golden = Answer{
			Kind:      AnswerNumber,
			Number:    golden.Number,
			Unit:      golden.Unit,
			Tolerance: golden.Tolerance,
			Text:      golden.Text,
			Accept:    golden.Accept,
		}
	case looksLikeExpression(golden.Text):
		cp.Golden = Answer{Kind: AnswerExpression, Text: golden.Text, Accept: golden.Accept}
	default:
		cp.Golden = Answer{Kind: AnswerPhrase, Text: golden.Text, Accept: golden.Accept}
	}
	return cp
}

// looksLikeExpression is a heuristic for option contents that are boolean
// expressions such as "Q = S'R'q + SR'": presence of the operators the
// digital substrate uses.
func looksLikeExpression(s string) bool {
	hasOp := false
	hasLetter := false
	for _, r := range s {
		switch {
		case r == '\'' || r == '+' || r == '^' || r == '&':
			hasOp = true
		case r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z':
			hasLetter = true
		case r == ' ' || r == '=' || r == '(' || r == ')' || r >= '0' && r <= '9':
			// allowed
		default:
			return false
		}
	}
	return hasOp && hasLetter
}
