_start:
	ld a0, 8(q1)
